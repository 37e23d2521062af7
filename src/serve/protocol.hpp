#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "runtime/result_sink.hpp"

/// \file protocol.hpp
/// The scheduling service's wire protocol: newline-delimited JSON over a
/// local stream socket, one flat JSON object per request and per
/// response (the same scalar-only shape as the repo's JSONL rows, parsed
/// with runtime::parse_jsonl_row and emitted with common/json.hpp).
///
/// Request grammar (all fields optional except where noted; unknown keys
/// are rejected so typos fail loudly):
///
///   {"op":"schedule","id":7,"workload":"fft:points=64","algo":"bsa",
///    "topology":"ring","procs":8,"size":100,"gran":1,"het":1,
///    "link_het":1,"per_pair":false,"seed":1,"cache":true,
///    "validate":false}
///   {"op":"ping","id":1}
///   {"op":"stats","id":2}
///   {"op":"shutdown","id":3}
///
/// Response: one flat JSON object per request, not necessarily in
/// request order (batching reorders) — clients match on "id". The
/// envelope fields ("id", "ok", "cached", "server_us", and "error" on
/// failure) may differ between a cache hit and a fresh run; everything
/// else is the *payload*, which is a pure function of the canonical
/// request key, so a cache hit's payload is byte-identical to the fresh
/// run that populated it (docs/DESIGN_SERVE.md has the exactness
/// argument).
///
/// A schedule payload echoes the canonicalised request (workload, algo,
/// topology, procs, size, gran, het, link_het, per_pair, seed), then
/// reports tasks, msgs, makespan, the scheduler's deterministic
/// counters as flat "ctr:<name>" keys, optionally "valid", and the full
/// schedule in the native text format (sched/schedule_io.hpp) as the
/// "schedule" string.

namespace bsa::serve {

/// Hard cap on one request line; longer lines are answered with an error
/// and the connection is closed (a line that long is a protocol bug, not
/// a workload).
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

/// A parsed scheduling-service request. Defaults mirror bsa_tool's
/// single-run flags so a request and the equivalent bsa_tool invocation
/// describe the same evaluation (the CI byte-identity check relies on
/// this).
struct Request {
  std::string op = "schedule";  ///< schedule | ping | stats | shutdown
  std::uint64_t id = 0;         ///< client-chosen; echoed in the response
  std::string workload = "random";  ///< workload registry spec
  std::string algo = "bsa";         ///< scheduler registry spec
  std::string topology = "ring";    ///< one of exp::topology_kinds()
  int size = 100;                   ///< target task count
  double gran = 1.0;                ///< granularity (a spec ccr= wins)
  int procs = 8;
  int het = 1;       ///< execution heterogeneity range U[1,het]
  int link_het = 1;  ///< link heterogeneity range U[1,link_het]
  bool per_pair = false;
  std::uint64_t seed = 1;
  bool use_cache = true;  ///< "cache":false bypasses lookup and insert
  bool validate = false;  ///< run the full invariant checker
};

/// Parse one request line. Throws PreconditionError on malformed JSON,
/// unknown keys, unknown ops or out-of-range values; the message lists
/// the valid choices (matching the registries' error style).
[[nodiscard]] Request parse_request(const std::string& line);

/// The "id" of a request line, or 0 when the line is not JSON or its id
/// does not parse. Error replies to lines parse_request rejects echo it,
/// so the client matches them like any other reply.
[[nodiscard]] std::uint64_t request_id(const std::string& line);

/// Serialise a request as one JSON line (no trailing newline). Only
/// non-default fields are emitted, so the line stays small.
[[nodiscard]] std::string request_to_json(const Request& req);

/// Canonicalise the spec fields in place (workload and algo through
/// their registries) and check that exp::make_topology can build the
/// topology and procs (exp::check_topology), and that a `bsa:route=ecube`
/// request names a topology E-cube can route on. Throws PreconditionError
/// listing valid choices on any unknown name, and naming the kind on an
/// impossible processor count or topology. Returns the canonical cache
/// key: every result-affecting field in a fixed order, so two requests
/// collide exactly when they describe the same evaluation.
[[nodiscard]] std::string canonicalize(Request& req);

/// Typed error codes carried in the "code" field of error responses —
/// the failure taxonomy clients dispatch on (docs/DESIGN_SERVE.md,
/// "Failure semantics"). Retry guidance: `overloaded` and `internal`
/// are retryable (the former with the server's retry_after_ms hint);
/// `bad_request` and `oversized` never are; `shutting_down` is
/// retryable only against a *different* server instance.
namespace error_code {
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kShuttingDown = "shutting_down";
inline constexpr const char* kInternal = "internal";
inline constexpr const char* kOversized = "oversized";
}  // namespace error_code

/// A parsed response. `payload` holds every non-envelope field (see file
/// comment); convenience accessors pull out the common ones.
struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  bool cached = false;
  double server_us = 0;  ///< daemon-side accept->respond latency
  std::string error;     ///< set when !ok
  std::string code;      ///< typed error code (error_code::*) when !ok
  /// Server's backoff hint on `overloaded` responses (0 = none).
  int retry_after_ms = 0;
  /// Raw payload fields (everything except the envelope), e.g.
  /// "makespan" -> 120, "schedule" -> "task 0 1 0 10\n...".
  std::map<std::string, runtime::JsonScalar> payload;

  [[nodiscard]] double number(const std::string& key, double fallback) const;
  [[nodiscard]] std::string text(const std::string& key) const;
  [[nodiscard]] double makespan() const { return number("makespan", -1); }
  [[nodiscard]] std::string schedule_text() const { return text("schedule"); }
};

/// Parse one response line (throws PreconditionError on malformed JSON).
[[nodiscard]] Response parse_response(const std::string& line);

/// Assemble a success response line: the envelope followed by the cached
/// or freshly-built payload fragment (comma-separated "key":value text,
/// no surrounding braces).
[[nodiscard]] std::string format_response(std::uint64_t id, bool cached,
                                          double server_us,
                                          const std::string& payload);

/// Assemble a typed error response line; `retry_after_ms` > 0 adds the
/// backoff hint (overloaded responses).
[[nodiscard]] std::string format_error(std::uint64_t id,
                                       const std::string& code,
                                       const std::string& message,
                                       int retry_after_ms = 0);

/// Legacy untyped form: code defaults to error_code::kInternal.
[[nodiscard]] std::string format_error(std::uint64_t id,
                                       const std::string& message);

}  // namespace bsa::serve
