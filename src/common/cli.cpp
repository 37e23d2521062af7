#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "common/check.hpp"

namespace bsa {
namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg.rfind("--", 0) == 0;
}

}  // namespace

std::optional<bool> parse_bool_literal(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

std::optional<std::int64_t> parse_int_literal(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  // strtoll silently clamps to LLONG_MIN/MAX on overflow (ERANGE);
  // reject instead of handing the caller a clamped value.
  if (end == nullptr || *end != '\0' || end == text.c_str() ||
      errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_uint64_literal(const std::string& text) {
  // strtoull accepts and negates "-1"; an unsigned literal must not.
  if (text.empty() || text.front() == '-') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == text.c_str() ||
      errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_double_literal(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == text.c_str()) {
    return std::nullopt;
  }
  // Overflow clamps to +-HUGE_VAL with ERANGE; underflow-to-zero is
  // accepted (the nearest representable value is a fine answer there).
  if (errno == ERANGE && std::abs(v) == HUGE_VAL) return std::nullopt;
  return v;
}

CliParser::CliParser(int argc, const char* const* argv) {
  BSA_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      const std::string name = arg.substr(0, eq);
      BSA_REQUIRE(!name.empty(), "malformed flag --=...");
      flags_[name].push_back(arg.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself a flag, else boolean.
    if (i + 1 < argc && !is_flag(argv[i + 1])) {
      flags_[arg].push_back(argv[i + 1]);
      ++i;
    } else {
      flags_[arg].push_back("true");
    }
  }
}

bool CliParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

void CliParser::require_known(
    std::initializer_list<std::string_view> known) const {
  std::string unknown;
  int count = 0;
  for (const auto& [name, values] : flags_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    unknown += (count++ == 0 ? "--" : ", --") + name;
  }
  BSA_REQUIRE(count == 0, "unknown flag" << (count > 1 ? "s " : " ")
                                          << unknown << " (see --help)");
}

std::optional<int> CliParser::check_flags(
    std::string_view title,
    std::initializer_list<std::string_view> known) const {
  if (has("help")) {
    std::cout << title << " flags:";
    for (const std::string_view flag : known) std::cout << " --" << flag;
    std::cout << '\n';
    return 0;
  }
  try {
    require_known(known);
  } catch (const PreconditionError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return std::nullopt;
}

const std::string* CliParser::last_value(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second.back();
}

std::string CliParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const std::string* v = last_value(name);
  return v == nullptr ? fallback : *v;
}

std::vector<std::string> CliParser::get_strings(
    const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::vector<std::string>{} : it->second;
}

std::int64_t CliParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const std::string* text = last_value(name);
  if (text == nullptr) return fallback;
  const std::optional<std::int64_t> v = parse_int_literal(*text);
  BSA_REQUIRE(v.has_value(),
              "flag --" << name << " expects an in-range integer, got '"
                        << *text << "'");
  return *v;
}

std::uint64_t CliParser::get_uint64(const std::string& name,
                                    std::uint64_t fallback) const {
  const std::string* text = last_value(name);
  if (text == nullptr) return fallback;
  const std::optional<std::uint64_t> v = parse_uint64_literal(*text);
  BSA_REQUIRE(v.has_value(),
              "flag --" << name
                        << " expects an in-range unsigned integer, got '"
                        << *text << "'");
  return *v;
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const std::string* text = last_value(name);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text->c_str(), &end);
  BSA_REQUIRE(end != nullptr && *end == '\0' && end != text->c_str() &&
                  !text->empty(),
              "flag --" << name << " expects a number, got '" << *text
                        << "'");
  // Overflow clamps to +-HUGE_VAL with ERANGE; underflow-to-zero is
  // accepted (the nearest representable value is a fine answer there).
  BSA_REQUIRE(errno != ERANGE || std::abs(v) != HUGE_VAL,
              "flag --" << name << " is out of range: '" << *text << "'");
  return v;
}

int CliParser::threads(int fallback) const {
  const std::int64_t v =
      get_int("threads", get_int("jobs", static_cast<std::int64_t>(fallback)));
  BSA_REQUIRE(v >= 0, "--threads/--jobs expects a non-negative count, got "
                          << v);
  BSA_REQUIRE(v <= std::numeric_limits<int>::max(),
              "--threads/--jobs count " << v << " is out of range");
  return static_cast<int>(v);
}

std::optional<std::string> CliParser::out_path() const {
  if (!has("out")) return std::nullopt;
  const std::string path = get_string("out", "");
  // A bare `--out` parses as the boolean literal; a file literally named
  // "true" can still be requested as `--out ./true`.
  BSA_REQUIRE(!path.empty() && path != "true",
              "--out expects a path (e.g. --out results.jsonl)");
  return path;
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  const std::string* text = last_value(name);
  if (text == nullptr) return fallback;
  const std::optional<bool> v = parse_bool_literal(*text);
  BSA_REQUIRE(v.has_value(), "flag --" << name << " expects a boolean, got '"
                                       << *text << "'");
  return *v;
}

}  // namespace bsa
