#include "baselines/dls.hpp"

#include <algorithm>

#include "baselines/list_common.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "network/routing.hpp"

namespace bsa::baselines {
namespace {

/// Static level: longest chain of median execution costs starting at the
/// task (communication excluded, per Sih & Lee).
std::vector<Cost> compute_static_levels(
    const graph::TaskGraph& g, const net::HeterogeneousCostModel& costs) {
  std::vector<Cost> sl(static_cast<std::size_t>(g.num_tasks()), 0);
  const auto& topo_order = g.topological_order();
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const TaskId t = *it;
    Cost best_tail = 0;
    for (const EdgeId e : g.out_edges(t)) {
      best_tail = std::max(
          best_tail, sl[static_cast<std::size_t>(g.edge_dst(e))]);
    }
    sl[static_cast<std::size_t>(t)] = costs.median_exec_cost(t) + best_tail;
  }
  return sl;
}

}  // namespace

sched::RankScheduleResult schedule_dls(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs, const DlsOptions& options) {
  const net::RoutingTable table(topo);
  sched::RankScheduleResult result{sched::Schedule(g, topo), {}, {}};
  // TF(P_x) is the append slot rule: the finish of P_x's last task.
  ListRun run(result, table, costs, /*insertion=*/false);
  result.ranks = compute_static_levels(g, costs);
  const sched::Schedule& s = result.schedule;

  // Tie order among equal dynamic levels: smallest ids when seed == 0,
  // otherwise a deterministic hash shuffle of the (task, processor)
  // pairs. The hash ranks first so a non-zero seed actually permutes
  // ties; ids disambiguate hash collisions.
  const auto tie_wins = [&options](TaskId t, ProcId p, TaskId best_t,
                                   ProcId best_p) {
    if (options.seed == 0) {
      return t < best_t || (t == best_t && p < best_p);
    }
    const std::uint64_t h =
        derive_seed(options.seed, static_cast<std::uint64_t>(t),
                    static_cast<std::uint64_t>(p));
    const std::uint64_t best_h =
        derive_seed(options.seed, static_cast<std::uint64_t>(best_t),
                    static_cast<std::uint64_t>(best_p));
    return h < best_h || (h == best_h && (t < best_t ||
                                          (t == best_t && p < best_p)));
  };

  // DA(t, p) per (task, processor), cached once computed. A ready task's
  // predecessors are all placed and DLS never un-books, so DA(t, p)
  // changes only when a hop is booked on a link of one of its routes
  // (remote predecessor's processor -> p). Each entry is registered on
  // those links when computed; a commit invalidates the entries
  // registered on every link it books, then clears those lists.
  const int m = topo.num_processors();
  const auto pair_of = [m](TaskId t, ProcId p) {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(m) +
           static_cast<std::size_t>(p);
  };
  std::vector<Time> da_cache(static_cast<std::size_t>(g.num_tasks()) *
                             static_cast<std::size_t>(m));
  std::vector<unsigned char> da_valid(da_cache.size(), 0);
  std::vector<std::vector<std::size_t>> watchers(
      static_cast<std::size_t>(topo.num_links()));
  std::vector<LinkId> routed;
  const auto data_arrival = [&](TaskId t, ProcId p) {
    const std::size_t pair = pair_of(t, p);
    if (da_valid[pair] == 0) {
      routed.clear();
      da_cache[pair] = run.probe().tentative(t, p, &routed);
      da_valid[pair] = 1;
      for (const LinkId l : routed) {
        watchers[static_cast<std::size_t>(l)].push_back(pair);
      }
    }
    return da_cache[pair];
  };

  while (!run.ready().empty()) {
    // Evaluate every (ready task, processor) pair.
    const std::vector<TaskId>& ready = run.ready();
    std::size_t best_i = 0;
    TaskId best_task = kInvalidTask;
    ProcId best_proc = kInvalidProc;
    Time best_start = 0;
    double best_dl = 0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId t = ready[i];
      const Cost sl_star = result.ranks[static_cast<std::size_t>(t)];
      for (ProcId p = 0; p < m; ++p) {
        const Time start = run.task_slot(p, data_arrival(t, p), 0);
        const double delta =
            costs.median_exec_cost(t) - costs.exec_cost(t, p);
        const double dl = sl_star - start + delta;
        const bool better =
            best_task == kInvalidTask || dl > best_dl ||
            (dl == best_dl && tie_wins(t, p, best_task, best_proc));
        if (better) {
          best_i = i;
          best_task = t;
          best_proc = p;
          best_start = start;
          best_dl = dl;
        }
      }
    }
    BSA_ASSERT(best_task != kInvalidTask, "no schedulable pair found");

    // Commit: book the message routes, then the task itself.
    const Time start = run.commit(best_i, best_proc);
    BSA_ASSERT(start == best_start,
               "tentative/commit divergence for task " << best_task);
    for (const EdgeId e : g.in_edges(best_task)) {
      for (const sched::Hop& hop : s.route_of(e)) {
        auto& stale = watchers[static_cast<std::size_t>(hop.link)];
        for (const std::size_t pair : stale) da_valid[pair] = 0;
        stale.clear();
      }
    }
    run.sort_ready();
  }
  BSA_ASSERT(s.all_placed(), "DLS left tasks unscheduled");
  return result;
}

}  // namespace bsa::baselines
