#include "serve/protocol.hpp"

#include <cmath>
#include <exception>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/spec.hpp"
#include "core/bsa.hpp"
#include "exp/experiment.hpp"
#include "sched/scheduler.hpp"
#include "workloads/costs.hpp"
#include "workloads/workload_registry.hpp"

namespace bsa::serve {
namespace {

/// Integer field with an inclusive lower bound; JSON numbers are
/// doubles, so reject non-integral values instead of truncating.
int take_int(const std::map<std::string, runtime::JsonScalar>& fields,
             const std::string& key, int fallback, int min_value) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const double* v = std::get_if<double>(&it->second);
  BSA_REQUIRE(v != nullptr && *v == std::floor(*v),
              "request field '" << key << "' expects an integer");
  BSA_REQUIRE(*v >= min_value, "request field '" << key << "' expects >= "
                                                 << min_value << ", got "
                                                 << *v);
  return static_cast<int>(*v);
}

std::uint64_t take_uint64(
    const std::map<std::string, runtime::JsonScalar>& fields,
    const std::string& key, std::uint64_t fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const double* v = std::get_if<double>(&it->second);
  // 2^64 itself is the first double past the range.
  BSA_REQUIRE(v != nullptr && *v == std::floor(*v) && *v >= 0 &&
                  *v < 18446744073709551616.0,
              "request field '" << key
                                << "' expects a non-negative integer below "
                                   "2^64");
  return static_cast<std::uint64_t>(*v);
}

double take_double(const std::map<std::string, runtime::JsonScalar>& fields,
                   const std::string& key, double fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const double* v = std::get_if<double>(&it->second);
  BSA_REQUIRE(v != nullptr && std::isfinite(*v),
              "request field '" << key << "' expects a finite number");
  return *v;
}

bool take_bool(const std::map<std::string, runtime::JsonScalar>& fields,
               const std::string& key, bool fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const bool* v = std::get_if<bool>(&it->second);
  BSA_REQUIRE(v != nullptr, "request field '" << key
                                              << "' expects true or false");
  return *v;
}

std::string take_string(
    const std::map<std::string, runtime::JsonScalar>& fields,
    const std::string& key, const std::string& fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  const std::string* v = std::get_if<std::string>(&it->second);
  BSA_REQUIRE(v != nullptr, "request field '" << key
                                              << "' expects a string");
  return *v;
}

const std::vector<std::string>& known_request_keys() {
  static const std::vector<std::string> kKeys = {
      "op",       "id",   "workload", "algo",     "topology",
      "procs",    "size", "gran",     "het",      "link_het",
      "per_pair", "seed", "cache",    "validate"};
  return kKeys;
}

}  // namespace

Request parse_request(const std::string& line) {
  const auto fields = runtime::parse_jsonl_row(line);
  for (const auto& [key, _] : fields) {
    bool known = false;
    for (const std::string& k : known_request_keys()) {
      known = known || k == key;
    }
    BSA_REQUIRE(known, "unknown request field '"
                           << key << "'; accepted: "
                           << join_list(known_request_keys(), ", "));
  }
  Request req;
  req.op = ascii_lower(take_string(fields, "op", req.op));
  BSA_REQUIRE(req.op == "schedule" || req.op == "ping" || req.op == "stats" ||
                  req.op == "shutdown",
              "unknown op '" << req.op
                             << "'; accepted: schedule, ping, stats, "
                                "shutdown");
  req.id = take_uint64(fields, "id", req.id);
  req.workload = take_string(fields, "workload", req.workload);
  req.algo = take_string(fields, "algo", req.algo);
  req.topology = ascii_lower(take_string(fields, "topology", req.topology));
  req.size = take_int(fields, "size", req.size, 1);
  req.gran = take_double(fields, "gran", req.gran);
  BSA_REQUIRE(workloads::comm_costs_in_range(req.gran),
              "request field 'gran' expects a finite granularity > 0 that "
              "keeps communication costs below 2^63, got "
                  << req.gran);
  req.procs = take_int(fields, "procs", req.procs, 1);
  req.het = take_int(fields, "het", req.het, 1);
  req.link_het = take_int(fields, "link_het", req.link_het, 1);
  req.per_pair = take_bool(fields, "per_pair", req.per_pair);
  req.seed = take_uint64(fields, "seed", req.seed);
  req.use_cache = take_bool(fields, "cache", req.use_cache);
  req.validate = take_bool(fields, "validate", req.validate);
  return req;
}

std::uint64_t request_id(const std::string& line) {
  try {
    return take_uint64(runtime::parse_jsonl_row(line), "id", 0);
  } catch (const std::exception&) {
    return 0;
  }
}

std::string request_to_json(const Request& req) {
  const Request defaults;
  std::ostringstream os;
  os << "{\"op\":\"" << json_escape(req.op) << "\",\"id\":" << req.id;
  if (req.workload != defaults.workload) {
    os << ",\"workload\":\"" << json_escape(req.workload) << '"';
  }
  if (req.algo != defaults.algo) {
    os << ",\"algo\":\"" << json_escape(req.algo) << '"';
  }
  if (req.topology != defaults.topology) {
    os << ",\"topology\":\"" << json_escape(req.topology) << '"';
  }
  if (req.size != defaults.size) os << ",\"size\":" << req.size;
  if (req.gran != defaults.gran) os << ",\"gran\":" << json_number(req.gran);
  if (req.procs != defaults.procs) os << ",\"procs\":" << req.procs;
  if (req.het != defaults.het) os << ",\"het\":" << req.het;
  if (req.link_het != defaults.link_het) {
    os << ",\"link_het\":" << req.link_het;
  }
  if (req.per_pair) os << ",\"per_pair\":true";
  if (req.seed != defaults.seed) os << ",\"seed\":" << req.seed;
  if (!req.use_cache) os << ",\"cache\":false";
  if (req.validate) os << ",\"validate\":true";
  os << '}';
  return os.str();
}

std::string canonicalize(Request& req) {
  req.workload = workloads::WorkloadRegistry::global().canonical(req.workload);
  req.algo = sched::SchedulerRegistry::global().canonical(req.algo);
  exp::check_topology(req.topology, req.procs);
  // A topology the scheduler cannot route on is a bad request too,
  // answered here, before queueing, and so never cached. The canonical
  // spec spells the option exactly so, which keeps the hit path free of
  // a second spec parse.
  if (req.algo.rfind("bsa:", 0) == 0 &&
      req.algo.find("route=ecube") != std::string::npos) {
    core::check_ecube_topology(
        exp::make_topology(req.topology, req.procs, req.seed));
  }
  std::ostringstream key;
  key << "w=" << req.workload << "|a=" << req.algo << "|t=" << req.topology
      << "|p=" << req.procs << "|n=" << req.size
      << "|g=" << canonical_double(req.gran) << "|h=" << req.het
      << "|l=" << req.link_het << "|pp=" << (req.per_pair ? 1 : 0)
      << "|s=" << req.seed << "|v=" << (req.validate ? 1 : 0);
  return key.str();
}

double Response::number(const std::string& key, double fallback) const {
  const auto it = payload.find(key);
  if (it == payload.end()) return fallback;
  const double* v = std::get_if<double>(&it->second);
  return v == nullptr ? fallback : *v;
}

std::string Response::text(const std::string& key) const {
  const auto it = payload.find(key);
  if (it == payload.end()) return {};
  const std::string* v = std::get_if<std::string>(&it->second);
  return v == nullptr ? std::string{} : *v;
}

Response parse_response(const std::string& line) {
  auto fields = runtime::parse_jsonl_row(line);
  Response resp;
  const auto take = [&fields](const char* key) {
    const auto it = fields.find(key);
    runtime::JsonScalar v = nullptr;
    if (it != fields.end()) {
      v = it->second;
      fields.erase(it);
    }
    return v;
  };
  if (const auto id = take("id"); std::holds_alternative<double>(id)) {
    resp.id = static_cast<std::uint64_t>(std::get<double>(id));
  }
  if (const auto ok = take("ok"); std::holds_alternative<bool>(ok)) {
    resp.ok = std::get<bool>(ok);
  }
  if (const auto c = take("cached"); std::holds_alternative<bool>(c)) {
    resp.cached = std::get<bool>(c);
  }
  if (const auto us = take("server_us"); std::holds_alternative<double>(us)) {
    resp.server_us = std::get<double>(us);
  }
  if (const auto err = take("error");
      std::holds_alternative<std::string>(err)) {
    resp.error = std::get<std::string>(err);
  }
  if (const auto code = take("code");
      std::holds_alternative<std::string>(code)) {
    resp.code = std::get<std::string>(code);
  }
  if (const auto ra = take("retry_after_ms");
      std::holds_alternative<double>(ra)) {
    resp.retry_after_ms = static_cast<int>(std::get<double>(ra));
  }
  resp.payload = std::move(fields);
  return resp;
}

std::string format_response(std::uint64_t id, bool cached, double server_us,
                            const std::string& payload) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"ok\":true,\"cached\":"
     << (cached ? "true" : "false")
     << ",\"server_us\":" << json_number(server_us);
  if (!payload.empty()) os << ',' << payload;
  os << '}';
  return os.str();
}

std::string format_error(std::uint64_t id, const std::string& code,
                         const std::string& message, int retry_after_ms) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"ok\":false,\"code\":\"" << json_escape(code)
     << "\",\"error\":\"" << json_escape(message) << '"';
  if (retry_after_ms > 0) os << ",\"retry_after_ms\":" << retry_after_ms;
  os << '}';
  return os.str();
}

std::string format_error(std::uint64_t id, const std::string& message) {
  return format_error(id, error_code::kInternal, message, 0);
}

}  // namespace bsa::serve
