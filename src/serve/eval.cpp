#include "serve/eval.hpp"

#include <string>
#include <string_view>

#include "common/json.hpp"
#include "exp/experiment.hpp"
#include "fault/failpoint.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "obs/trace.hpp"
#include "sched/schedule_io.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "workloads/workload_registry.hpp"

namespace bsa::serve {

std::string evaluate_request(const Request& req) {
  return evaluate_request(req, obs::Hooks{});
}

std::string evaluate_request(const Request& req, const obs::Hooks& hooks) {
  // Per-cell chaos: a fail here is caught by the dispatcher and errors
  // only the requests deduplicated into this cell (isolation invariant).
  const fault::Action fa = fault::check(fault::SiteId::kEval);
  fault::maybe_delay(fa);
  fault::throw_if_fail(fa, "eval");
  // The spans name each stage of a miss, so `serve.schedule`'s self time
  // is accounted for; the scheduler run is spanned by run_observed.
  obs::Span generate_span(hooks.tracer, "serve.generate", "serve",
                          hooks.trace_tid);
  const graph::TaskGraph g = workloads::WorkloadRegistry::global()
                                 .resolve(req.workload)
                                 ->generate(req.size, req.gran, req.seed);
  generate_span.close();
  obs::Span network_span(hooks.tracer, "serve.network", "serve",
                         hooks.trace_tid);
  const net::Topology topo =
      exp::make_topology(req.topology, req.procs, req.seed);
  const net::HeterogeneousCostModel cm = exp::make_cost_model(
      g, topo, 1, req.het, 1, req.link_het, req.per_pair, req.seed);
  network_span.close();
  const auto scheduler = sched::SchedulerRegistry::global().resolve(req.algo);
  sched::SchedulerResult result =
      scheduler->run_observed(g, topo, cm, req.seed, hooks);
  const bool valid = req.validate && sched::validate(result.schedule, cm).ok();

  obs::Span encode_span(hooks.tracer, "serve.encode", "serve",
                        hooks.trace_tid);
  const std::string text = sched::schedule_to_text(result.schedule);
  std::string out;
  // Escaping adds a byte per line of text; the echo and counters fit 2 KB.
  out.reserve(text.size() + text.size() / 8 + 2048);
  out += "\"op\":\"schedule\"";
  const auto raw = [&](std::string_view key, std::string_view value) {
    out += ",\"";
    append_json_escaped(out, key);
    out += "\":";
    out += value;
  };
  const auto quoted = [&](std::string_view key, std::string_view value) {
    raw(key, "\"");
    append_json_escaped(out, value);
    out += '"';
  };
  quoted("workload", req.workload);
  quoted("algo", req.algo);
  quoted("topology", req.topology);
  raw("procs", std::to_string(req.procs));
  raw("size", std::to_string(req.size));
  raw("gran", json_number(req.gran));
  raw("het", std::to_string(req.het));
  raw("link_het", std::to_string(req.link_het));
  raw("per_pair", req.per_pair ? "true" : "false");
  raw("seed", std::to_string(req.seed));
  raw("tasks", std::to_string(g.num_tasks()));
  raw("msgs", std::to_string(g.num_edges()));
  raw("makespan", json_number(result.schedule.makespan()));
  if (req.validate) raw("valid", valid ? "true" : "false");
  for (const auto& [name, value] : result.counters) {
    raw("ctr:" + name, std::to_string(value));
  }
  quoted("schedule", text);
  return out;
}

}  // namespace bsa::serve
