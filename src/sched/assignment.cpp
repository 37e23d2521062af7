#include "sched/assignment.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/levels.hpp"
#include "sched/link_probe.hpp"

namespace bsa::sched {

Schedule schedule_from_assignment(const graph::TaskGraph& g,
                                  const net::Topology& topo,
                                  const net::HeterogeneousCostModel& costs,
                                  std::span<const ProcId> assignment,
                                  const net::RoutingTable& table) {
  BSA_REQUIRE(assignment.size() == static_cast<std::size_t>(g.num_tasks()),
              "assignment size " << assignment.size() << " != num_tasks "
                                 << g.num_tasks());
  for (const ProcId p : assignment) {
    BSA_REQUIRE(p >= 0 && p < topo.num_processors(),
                "assignment contains invalid processor " << p);
  }

  const graph::LevelSets levels = graph::compute_levels(g);
  Schedule s(g, topo);

  // Ready-driven list scheduling by descending b-level.
  std::vector<int> missing(static_cast<std::size_t>(g.num_tasks()));
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    missing[static_cast<std::size_t>(t)] = g.in_degree(t);
    if (g.in_degree(t) == 0) ready.push_back(t);
  }
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
    const ProcId p = assignment[static_cast<std::size_t>(t)];

    // Route incoming messages and compute the data-ready time.
    Time drt = 0;
    for (const EdgeId e : g.in_edges(t)) {
      const TaskId src = g.edge_src(e);
      const ProcId ps = s.proc_of(src);
      if (ps == p) {
        drt = std::max(drt, s.finish_of(src));
        continue;
      }
      drt = std::max(drt, book_route(s, costs, e, table.route(ps, p),
                                     s.finish_of(src), true));
    }

    const Time dur = costs.exec_cost(t, p);
    const Time st = task_start(s, p, drt, dur, true);
    s.place_task(t, p, st, st + dur);

    for (const EdgeId e : g.out_edges(t)) {
      const TaskId d = g.edge_dst(e);
      if (--missing[static_cast<std::size_t>(d)] == 0) ready.push_back(d);
    }
  }
  BSA_ASSERT(s.all_placed(), "assignment scheduling left tasks unplaced");
  return s;
}

Schedule schedule_from_assignment(const graph::TaskGraph& g,
                                  const net::Topology& topo,
                                  const net::HeterogeneousCostModel& costs,
                                  std::span<const ProcId> assignment) {
  const net::RoutingTable table(topo);
  return schedule_from_assignment(g, topo, costs, assignment, table);
}

std::vector<ProcId> assignment_of(const Schedule& s) {
  BSA_REQUIRE(s.all_placed(), "assignment_of requires a complete schedule");
  std::vector<ProcId> out(
      static_cast<std::size_t>(s.task_graph().num_tasks()));
  for (TaskId t = 0; t < s.task_graph().num_tasks(); ++t) {
    out[static_cast<std::size_t>(t)] = s.proc_of(t);
  }
  return out;
}

}  // namespace bsa::sched
