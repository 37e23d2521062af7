#include "sched/assignment.hpp"

#include <utility>

#include "baselines/list_common.hpp"
#include "common/check.hpp"
#include "graph/levels.hpp"
#include "sched/rank_schedulers.hpp"

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

  // The list-scheduling loop of the rank schedulers, with the processor
  // fixed: descending b-level (ties to the smaller id), messages booked
  // along `table` routes and tasks in insertion slots.
  RankScheduleResult result{Schedule(g, topo), graph::compute_levels(g).b_level,
                            {}};
  baselines::ListRun run(result, table, costs, /*insertion=*/true);
  while (!run.ready().empty()) {
    const std::size_t pick = run.highest_ranked(result.ranks);
    (void)run.commit(pick,
                     assignment[static_cast<std::size_t>(run.ready()[pick])]);
  }
  BSA_ASSERT(result.schedule.all_placed(),
             "assignment scheduling left tasks unplaced");
  return std::move(result.schedule);
}

Schedule schedule_from_assignment(const graph::TaskGraph& g,
                                  const net::Topology& topo,
                                  const net::HeterogeneousCostModel& costs,
                                  std::span<const ProcId> assignment) {
  const net::RoutingTable table(topo);
  return schedule_from_assignment(g, topo, costs, assignment, table);
}

}  // namespace bsa::sched
