#include "sched/rank_schedulers.hpp"

#include <algorithm>
#include <utility>

#include "baselines/list_common.hpp"
#include "common/check.hpp"
#include "graph/levels.hpp"
#include "network/routing.hpp"

namespace bsa::sched {
namespace {

// HEFT's and PEFT's means (over the P processors, over the L links) are
// kept as sums scaled to a common denominator, so that equal means
// compare equal: a division would round them apart.

/// Execution cost of `t` summed over all processors.
Cost exec_sum(const net::HeterogeneousCostModel& costs, TaskId t) {
  Cost sum = 0;
  for (ProcId p = 0; p < costs.num_processors(); ++p) {
    sum += costs.exec_cost(t, p);
  }
  return sum;
}

/// Communication cost of `e` summed over all links.
Cost comm_sum(const net::HeterogeneousCostModel& costs, EdgeId e) {
  Cost sum = 0;
  for (LinkId l = 0; l < costs.num_links(); ++l) {
    sum += costs.comm_cost(e, l);
  }
  return sum;
}

/// L, the divisor of a mean communication cost (1 without links).
Cost link_count(const net::HeterogeneousCostModel& costs) {
  return std::max(costs.num_links(), 1);
}

/// rank_u times P·L.
std::vector<Cost> scaled_upward_ranks(
    const graph::TaskGraph& g, const net::HeterogeneousCostModel& costs) {
  const Cost procs = costs.num_processors();
  const Cost links = link_count(costs);
  std::vector<Cost> rank(static_cast<std::size_t>(g.num_tasks()), 0);
  const std::vector<TaskId>& topo_order = g.topological_order();
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const TaskId t = *it;
    Cost tail = 0;
    for (const EdgeId e : g.out_edges(t)) {
      const Cost via = procs * comm_sum(costs, e) +
                       rank[static_cast<std::size_t>(g.edge_dst(e))];
      tail = std::max(tail, via);
    }
    rank[static_cast<std::size_t>(t)] = links * exec_sum(costs, t) + tail;
  }
  return rank;
}

/// OCT times L, and rank_oct times P·L.
OctTable scaled_oct_table(const graph::TaskGraph& g,
                          const net::HeterogeneousCostModel& costs) {
  const auto n = static_cast<std::size_t>(g.num_tasks());
  const int m = costs.num_processors();
  const Cost links = link_count(costs);
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
        const Cost cbar = comm_sum(costs, e);
        const std::size_t jrow = static_cast<std::size_t>(j) *
                                 static_cast<std::size_t>(m);
        Cost best = kInfiniteTime;
        for (ProcId q = 0; q < m; ++q) {
          const Cost via = table.oct[jrow + static_cast<std::size_t>(q)] +
                           links * costs.exec_cost(j, q) +
                           (q == p ? 0 : cbar);
          best = std::min(best, via);
        }
        worst = std::max(worst, best);
      }
      table.oct[row + static_cast<std::size_t>(p)] = worst;
      row_sum += worst;
    }
    table.rank[static_cast<std::size_t>(t)] = row_sum;
  }
  return table;
}

/// Whether a placement decision probes the contended routes or assumes
/// idle links (EFT).
enum class Estimate { kContended, kContentionFree };

/// The one placement loop: ready-list selection by descending `ranks`
/// (ties to the smaller task id), processor choice minimising
/// score(t, p, finish) (ties to the smaller processor id) with task
/// slots by `insertion`, data-ready times by `estimate`, and the commit
/// of baselines::ListRun.
template <typename ScoreFn>
RankScheduleResult place_by_rank(const graph::TaskGraph& g,
                                 const net::Topology& topo,
                                 const net::HeterogeneousCostModel& costs,
                                 std::vector<Cost> ranks, ScoreFn score_of,
                                 bool insertion, Estimate estimate) {
  const net::RoutingTable table(topo);
  RankScheduleResult result{Schedule(g, topo), std::move(ranks), {}};
  baselines::ListRun run(result, table, costs, insertion);
  while (!run.ready().empty()) {
    const std::size_t pick = run.highest_ranked(result.ranks);
    const TaskId t = run.ready()[pick];

    ProcId best_proc = kInvalidProc;
    Time best_eft = kInfiniteTime;
    Cost best_score = kInfiniteTime;
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      const Time da = estimate == Estimate::kContended
                          ? run.probe().tentative(t, p)
                          : run.probe().contention_free(t, p);
      const Time dur = costs.exec_cost(t, p);
      const Time eft = run.task_slot(p, da, dur) + dur;
      const Cost score = score_of(t, p, eft);
      if (score < best_score) {
        best_score = score;
        best_eft = eft;
        best_proc = p;
      }
    }
    BSA_ASSERT(best_proc != kInvalidProc, "no processor chosen");

    // Commit: identical booking order, so a contended decision's finish
    // is reproduced exactly (see list_common.hpp). EFT's contention-free
    // estimate is what the commit corrects, so it may drift.
    const Time start = run.commit(pick, best_proc);
    BSA_ASSERT(estimate == Estimate::kContentionFree ||
                   start + costs.exec_cost(t, best_proc) == best_eft,
               "tentative EFT drifted");
  }
  BSA_ASSERT(result.schedule.all_placed(),
             "list scheduler left tasks unscheduled");
  return result;
}

/// The score of HEFT, MH and EFT: the finish time.
constexpr auto kByFinish = [](TaskId, ProcId, Time eft) -> Cost {
  return eft;
};

}  // namespace

std::vector<Cost> heft_upward_ranks(const graph::TaskGraph& g,
                                    const net::HeterogeneousCostModel& costs) {
  std::vector<Cost> rank = scaled_upward_ranks(g, costs);
  for (Cost& r : rank) r /= costs.num_processors() * link_count(costs);
  return rank;
}

OctTable peft_optimistic_costs(const graph::TaskGraph& g,
                               const net::HeterogeneousCostModel& costs) {
  OctTable table = scaled_oct_table(g, costs);
  for (Cost& o : table.oct) o /= link_count(costs);
  for (Cost& r : table.rank) r /= costs.num_processors() * link_count(costs);
  return table;
}

RankScheduleResult schedule_heft(const graph::TaskGraph& g,
                                 const net::Topology& topo,
                                 const net::HeterogeneousCostModel& costs) {
  return place_by_rank(g, topo, costs, scaled_upward_ranks(g, costs),
                       kByFinish, /*insertion=*/true, Estimate::kContended);
}

RankScheduleResult schedule_peft(const graph::TaskGraph& g,
                                 const net::Topology& topo,
                                 const net::HeterogeneousCostModel& costs) {
  OctTable table = scaled_oct_table(g, costs);
  const int m = topo.num_processors();
  // Finish + OCT, times L as the table is.
  return place_by_rank(
      g, topo, costs, std::move(table.rank),
      [oct = std::move(table.oct), m, links = link_count(costs)](
          TaskId t, ProcId p, Time eft) -> Cost {
        return links * eft +
               oct[static_cast<std::size_t>(t) * static_cast<std::size_t>(m) +
                   static_cast<std::size_t>(p)];
      },
      /*insertion=*/true, Estimate::kContended);
}

RankScheduleResult schedule_mh(const graph::TaskGraph& g,
                               const net::Topology& topo,
                               const net::HeterogeneousCostModel& costs) {
  return place_by_rank(g, topo, costs, graph::compute_levels(g).b_level,
                       kByFinish, /*insertion=*/false, Estimate::kContended);
}

RankScheduleResult schedule_eft_oblivious(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs) {
  return place_by_rank(g, topo, costs, graph::compute_levels(g).b_level,
                       kByFinish, /*insertion=*/false,
                       Estimate::kContentionFree);
}

}  // namespace bsa::sched
