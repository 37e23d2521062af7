#include "sched/rank_schedulers.hpp"

#include <algorithm>
#include <utility>

#include "baselines/list_common.hpp"
#include "common/check.hpp"
#include "network/routing.hpp"

namespace bsa::sched {
namespace {

/// Mean execution cost of `t` over all processors.
Cost mean_exec(const net::HeterogeneousCostModel& costs, TaskId t) {
  Cost sum = 0;
  for (ProcId p = 0; p < costs.num_processors(); ++p) {
    sum += costs.exec_cost(t, p);
  }
  return sum / static_cast<Cost>(costs.num_processors());
}

/// Mean communication cost of `e` over all links (0 for linkless
/// single-processor topologies).
Cost mean_comm(const net::HeterogeneousCostModel& costs, EdgeId e) {
  if (costs.num_links() == 0) return 0;
  Cost sum = 0;
  for (LinkId l = 0; l < costs.num_links(); ++l) {
    sum += costs.comm_cost(e, l);
  }
  return sum / static_cast<Cost>(costs.num_links());
}

/// Shared placement loop: ready-list selection by descending `ranks`
/// (ties to the smaller task id), earliest insertion-based slot via the
/// contended link-booking path, processor choice minimising
/// EFT + extra(t, p) where `extra` is 0 for HEFT and OCT(t, p) for PEFT.
template <typename ExtraFn>
RankScheduleResult place_by_rank(const graph::TaskGraph& g,
                                 const net::Topology& topo,
                                 const net::HeterogeneousCostModel& costs,
                                 std::vector<Cost> ranks, ExtraFn extra) {
  BSA_REQUIRE(g.num_tasks() >= 1, "empty task graph");
  const net::RoutingTable table(topo);
  RankScheduleResult result{Schedule(g, topo), std::move(ranks), {}};
  Schedule& s = result.schedule;
  result.order.reserve(static_cast<std::size_t>(g.num_tasks()));

  std::vector<int> missing_preds(static_cast<std::size_t>(g.num_tasks()));
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    missing_preds[static_cast<std::size_t>(t)] = g.in_degree(t);
    if (g.in_degree(t) == 0) ready.push_back(t);
  }

  baselines::DataReadyProbe probe(s, table, costs);
  while (!ready.empty()) {
    // Highest rank among ready tasks; ties to the smaller task id
    // (ready is maintained in ascending-id insertion order per wave, so
    // a strict > keeps the first of equals).
    std::size_t pick = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      const Cost ri = result.ranks[static_cast<std::size_t>(ready[i])];
      const Cost rp = result.ranks[static_cast<std::size_t>(ready[pick])];
      if (time_lt(rp, ri) || (time_eq(rp, ri) && ready[i] < ready[pick])) {
        pick = i;
      }
    }
    const TaskId t = ready[pick];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));

    ProcId best_proc = kInvalidProc;
    Time best_eft = kInfiniteTime;
    Time best_score = kInfiniteTime;
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      const Time da = probe.tentative(t, p);
      const Time dur = costs.exec_cost(t, p);
      const Time eft = s.earliest_task_slot(p, da, dur) + dur;
      const Time score = eft + extra(t, p);
      if (time_lt(score, best_score)) {
        best_score = score;
        best_eft = eft;
        best_proc = p;
      }
    }
    BSA_ASSERT(best_proc != kInvalidProc, "no processor chosen");

    // Commit: identical booking order, so da and the slot reproduce the
    // tentative values exactly (see list_common.hpp).
    const Time da = probe.commit(t, best_proc);
    const Time dur = costs.exec_cost(t, best_proc);
    const Time start = s.earliest_task_slot(best_proc, da, dur);
    BSA_ASSERT(time_eq(start + dur, best_eft), "tentative EFT drifted");
    s.place_task(t, best_proc, start, start + dur);
    result.order.push_back(t);

    for (const EdgeId e : g.out_edges(t)) {
      const TaskId d = g.edge_dst(e);
      if (--missing_preds[static_cast<std::size_t>(d)] == 0) {
        ready.push_back(d);
      }
    }
  }
  BSA_ASSERT(s.all_placed(), "rank scheduler left tasks unscheduled");
  return result;
}

}  // namespace

std::vector<Cost> heft_upward_ranks(const graph::TaskGraph& g,
                                    const net::HeterogeneousCostModel& costs) {
  std::vector<Cost> rank(static_cast<std::size_t>(g.num_tasks()), 0);
  const std::vector<TaskId>& topo_order = g.topological_order();
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const TaskId t = *it;
    Cost tail = 0;
    for (const EdgeId e : g.out_edges(t)) {
      const Cost via = mean_comm(costs, e) +
                       rank[static_cast<std::size_t>(g.edge_dst(e))];
      tail = std::max(tail, via);
    }
    rank[static_cast<std::size_t>(t)] = mean_exec(costs, t) + tail;
  }
  return rank;
}

OctTable peft_optimistic_costs(const graph::TaskGraph& g,
                               const net::HeterogeneousCostModel& costs) {
  const auto n = static_cast<std::size_t>(g.num_tasks());
  const int m = costs.num_processors();
  OctTable table;
  table.oct.assign(n * static_cast<std::size_t>(m), 0);
  table.rank.assign(n, 0);
  const std::vector<TaskId>& topo_order = g.topological_order();
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const TaskId t = *it;
    const std::size_t row = static_cast<std::size_t>(t) *
                            static_cast<std::size_t>(m);
    Cost row_sum = 0;
    for (ProcId p = 0; p < m; ++p) {
      Cost worst = 0;
      for (const EdgeId e : g.out_edges(t)) {
        const TaskId j = g.edge_dst(e);
        const Cost cbar = mean_comm(costs, e);
        const std::size_t jrow = static_cast<std::size_t>(j) *
                                 static_cast<std::size_t>(m);
        Cost best = kInfiniteTime;
        for (ProcId q = 0; q < m; ++q) {
          const Cost via = table.oct[jrow + static_cast<std::size_t>(q)] +
                           costs.exec_cost(j, q) + (q == p ? 0 : cbar);
          best = std::min(best, via);
        }
        worst = std::max(worst, best);
      }
      table.oct[row + static_cast<std::size_t>(p)] = worst;
      row_sum += worst;
    }
    table.rank[static_cast<std::size_t>(t)] = row_sum / static_cast<Cost>(m);
  }
  return table;
}

RankScheduleResult schedule_heft(const graph::TaskGraph& g,
                                 const net::Topology& topo,
                                 const net::HeterogeneousCostModel& costs) {
  return place_by_rank(g, topo, costs, heft_upward_ranks(g, costs),
                       [](TaskId, ProcId) -> Cost { return 0; });
}

RankScheduleResult schedule_peft(const graph::TaskGraph& g,
                                 const net::Topology& topo,
                                 const net::HeterogeneousCostModel& costs) {
  OctTable table = peft_optimistic_costs(g, costs);
  const int m = topo.num_processors();
  return place_by_rank(
      g, topo, costs, std::move(table.rank),
      [oct = std::move(table.oct), m](TaskId t, ProcId p) -> Cost {
        return oct[static_cast<std::size_t>(t) * static_cast<std::size_t>(m) +
                   static_cast<std::size_t>(p)];
      });
}

}  // namespace bsa::sched
