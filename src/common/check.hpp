#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

/// \file check.hpp
/// Error-reporting helpers. Following the C++ Core Guidelines (E.2, I.10)
/// precondition violations and invariant breaks are reported by throwing;
/// callers that cannot recover simply let the exception terminate.

namespace bsa {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is found broken (a bug in this
/// library, not in the caller).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// A caller's error: the text names the failed condition, not where in
/// this library it was checked (tools and the daemon show it to users).
[[noreturn]] inline void throw_precondition(const char* expr,
                                            const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}

/// A bug report: the text carries the source location of the check.
[[noreturn]] inline void throw_invariant(const char* expr, const char* file,
                                         int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}

}  // namespace detail
}  // namespace bsa

/// Validate a caller-supplied precondition; throws bsa::PreconditionError.
#define BSA_REQUIRE(expr, msg)                                              \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::bsa::detail::throw_precondition(#expr,                              \
                                        (std::ostringstream{} << msg).str()); \
    }                                                                       \
  } while (false)

/// Validate an internal invariant; throws bsa::InvariantError.
#define BSA_ASSERT(expr, msg)                                               \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::bsa::detail::throw_invariant(#expr, __FILE__, __LINE__,             \
                                     (std::ostringstream{} << msg).str());  \
    }                                                                       \
  } while (false)
