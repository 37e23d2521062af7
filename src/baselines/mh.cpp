#include "baselines/mh.hpp"

#include <algorithm>

#include "baselines/list_common.hpp"
#include "common/check.hpp"
#include "graph/levels.hpp"
#include "network/routing.hpp"

namespace bsa::baselines {

MhResult schedule_mh(const graph::TaskGraph& g, const net::Topology& topo,
                     const net::HeterogeneousCostModel& costs) {
  BSA_REQUIRE(g.num_tasks() >= 1, "empty task graph");
  const net::RoutingTable table(topo);
  const graph::LevelSets levels = graph::compute_levels(g);
  MhResult result{sched::Schedule(g, topo)};
  sched::Schedule& s = result.schedule;

  std::vector<int> missing_preds(static_cast<std::size_t>(g.num_tasks()));
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    missing_preds[static_cast<std::size_t>(t)] = g.in_degree(t);
    if (g.in_degree(t) == 0) ready.push_back(t);
  }
  std::vector<Time> tf(static_cast<std::size_t>(topo.num_processors()), 0);
  DataReadyProbe probe(s, table, costs);

  auto priority_less = [&](TaskId a, TaskId b) {
    const Cost ba = levels.b_level[static_cast<std::size_t>(a)];
    const Cost bb = levels.b_level[static_cast<std::size_t>(b)];
    if (!time_eq(ba, bb)) return ba > bb;
    return a < b;
  };

  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), priority_less);
    const TaskId t = ready.front();
    ready.erase(ready.begin());

    // Contention-aware earliest finish over all processors.
    ProcId best_proc = kInvalidProc;
    Time best_eft = kInfiniteTime;
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      const Time da = probe.tentative(t, p);
      const Time eft = std::max(da, tf[static_cast<std::size_t>(p)]) +
                       costs.exec_cost(t, p);
      if (time_lt(eft, best_eft)) {
        best_eft = eft;
        best_proc = p;
      }
    }
    BSA_ASSERT(best_proc != kInvalidProc, "no processor chosen");

    const Time da = probe.commit(t, best_proc);
    const Time start = std::max(da, tf[static_cast<std::size_t>(best_proc)]);
    const Time dur = costs.exec_cost(t, best_proc);
    s.place_task(t, best_proc, start, start + dur);
    tf[static_cast<std::size_t>(best_proc)] = start + dur;

    for (const EdgeId e : g.out_edges(t)) {
      const TaskId d = g.edge_dst(e);
      if (--missing_preds[static_cast<std::size_t>(d)] == 0) {
        ready.push_back(d);
      }
    }
  }
  BSA_ASSERT(s.all_placed(), "MH left tasks unscheduled");
  return result;
}

}  // namespace bsa::baselines
