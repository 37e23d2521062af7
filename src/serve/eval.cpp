#include "serve/eval.hpp"

#include <sstream>

#include "common/json.hpp"
#include "exp/experiment.hpp"
#include "fault/failpoint.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
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
  const graph::TaskGraph g = workloads::WorkloadRegistry::global()
                                 .resolve(req.workload)
                                 ->generate(req.size, req.gran, req.seed);
  const net::Topology topo =
      exp::make_topology(req.topology, req.procs, req.seed);
  const net::HeterogeneousCostModel cm = exp::make_cost_model(
      g, topo, 1, req.het, 1, req.link_het, req.per_pair, req.seed);
  const auto scheduler = sched::SchedulerRegistry::global().resolve(req.algo);
  sched::SchedulerResult result =
      scheduler->run_observed(g, topo, cm, req.seed, hooks);

  std::ostringstream os;
  os << "\"op\":\"schedule\""                                          //
     << ",\"workload\":\"" << json_escape(req.workload) << '"'         //
     << ",\"algo\":\"" << json_escape(req.algo) << '"'                 //
     << ",\"topology\":\"" << json_escape(req.topology) << '"'         //
     << ",\"procs\":" << req.procs                                     //
     << ",\"size\":" << req.size                                       //
     << ",\"gran\":" << json_number(req.gran)                          //
     << ",\"het\":" << req.het << ",\"link_het\":" << req.link_het     //
     << ",\"per_pair\":" << (req.per_pair ? "true" : "false")          //
     << ",\"seed\":" << req.seed                                       //
     << ",\"tasks\":" << g.num_tasks() << ",\"msgs\":" << g.num_edges()  //
     << ",\"makespan\":" << json_number(result.schedule.makespan());
  if (req.validate) {
    os << ",\"valid\":"
       << (sched::validate(result.schedule, cm).ok() ? "true" : "false");
  }
  for (const auto& [name, value] : result.counters) {
    os << ",\"ctr:" << json_escape(name) << "\":" << value;
  }
  os << ",\"schedule\":\"" << json_escape(sched::schedule_to_text(result.schedule))
     << '"';
  return os.str();
}

}  // namespace bsa::serve
