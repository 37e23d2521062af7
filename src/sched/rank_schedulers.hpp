#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"

/// \file rank_schedulers.hpp
/// HEFT and PEFT: the rank-based list-scheduling baselines the
/// heterogeneous-scheduling literature compares against (Topcuoglu et
/// al. 2002; Arabnejad & Barbosa 2014). Both compute a static per-task
/// rank on the heterogeneous cost model, then place tasks one at a time
/// into their earliest insertion-based slot, routing every incoming
/// message through the contended link-booking rule every scheduler
/// shares (baselines::DataReadyProbe over sched::book_route and
/// sched::LinkProbe) — so unlike the textbook formulations these
/// schedules are link contention-constrained, matching the rest of the
/// library.
///
/// Rank definitions (averages over the *actual* heterogeneous costs):
///  * HEFT upward rank:
///      rank_u(t) = wbar(t) + max over edges (t,j) of (cbar(t,j) + rank_u(j))
///    with wbar(t) the mean exec cost over processors and cbar(e) the
///    mean comm cost over links (exit tasks: rank_u = wbar).
///  * PEFT optimistic cost table:
///      OCT(t,p) = max over edges (t,j) of
///                 min over q of (OCT(j,q) + w(j,q) + [q != p] * cbar(t,j))
///    (exit tasks: all-zero row); rank_oct(t) = mean of OCT(t, ·).
///
/// Task selection is ready-list driven (highest rank among ready tasks,
/// ties to the smaller task id), which keeps precedence feasibility
/// even for degenerate rank ties. Placement minimises EFT (HEFT) or
/// EFT + OCT(t,p) (PEFT), ties to the smaller processor id. Everything
/// is deterministic; there is no seed.

namespace bsa::sched {

/// HEFT upward ranks, indexed by TaskId.
[[nodiscard]] std::vector<Cost> heft_upward_ranks(
    const graph::TaskGraph& g, const net::HeterogeneousCostModel& costs);

/// PEFT optimistic cost table and its row-average rank.
struct OctTable {
  /// OCT values, row-major `oct[t * m + p]`.
  std::vector<Cost> oct;
  /// rank_oct, indexed by TaskId.
  std::vector<Cost> rank;
};
[[nodiscard]] OctTable peft_optimistic_costs(
    const graph::TaskGraph& g, const net::HeterogeneousCostModel& costs);

struct RankScheduleResult {
  Schedule schedule;
  /// The priority rank actually used (rank_u / rank_oct), by TaskId.
  std::vector<Cost> ranks;
  /// Tasks in the order they were placed.
  std::vector<TaskId> order;
};

[[nodiscard]] RankScheduleResult schedule_heft(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs);

[[nodiscard]] RankScheduleResult schedule_peft(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs);

}  // namespace bsa::sched
