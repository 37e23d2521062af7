#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"

/// \file rank_schedulers.hpp
/// The static-priority list schedulers, all on one placement loop: HEFT
/// and PEFT, the rank-based baselines of the heterogeneous-scheduling
/// literature (Topcuoglu et al. 2002; Arabnejad & Barbosa 2014), MH
/// (after El-Rewini & Lewis, JPDC 1990) and the contention-oblivious EFT
/// ablation. Each supplies only a per-task rank and a per-(task,
/// processor) score; the loop takes the highest-ranked ready task (ties
/// to the smaller task id), puts it on the processor minimising
/// finish time + score (ties to the smaller processor id), and commits it
/// through the ready pool and commit step every list scheduler shares
/// (baselines::ListRun, list_common.hpp). Every incoming message is
/// routed through the contended link-booking rule (sched::book_route and
/// sched::LinkProbe), so unlike the textbook formulations these schedules
/// are link contention-constrained, matching the rest of the library.
///
/// The parameterisations:
///  * HEFT: rank_u, score 0, insertion-based task slots.
///      rank_u(t) = wbar(t) + max over edges (t,j) of (cbar(t,j) + rank_u(j))
///    with wbar(t) the mean exec cost over processors and cbar(e) the
///    mean comm cost over links (exit tasks: rank_u = wbar).
///  * PEFT: rank_oct, score OCT(t,p), insertion-based task slots.
///      OCT(t,p) = max over edges (t,j) of
///                 min over q of (OCT(j,q) + w(j,q) + [q != p] * cbar(t,j))
///    (exit tasks: all-zero row); rank_oct(t) = mean of OCT(t, ·).
///  * MH: static b-level on nominal costs (communication included),
///    score 0, append task slots.
///  * EFT: as MH, but each decision uses the contention-free data-ready
///    estimate (links assumed idle); only the commit books contention, so
///    the schedule is feasible and its length shows what the oblivious
///    decisions cost (ablation baseline, not from the paper).
///
/// Everything is deterministic; there is no seed. DLS
/// (baselines/dls.hpp) selects over every (ready task, processor) pair
/// instead, on the same ready pool and commit step.

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

/// The result of every list scheduler (the loop here and DLS).
struct RankScheduleResult {
  Schedule schedule;
  /// The priority rank actually used (rank_u and rank_oct times P·L —
  /// the sums, so that equal means tie exactly —, b-level, DLS's static
  /// level), by TaskId.
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

[[nodiscard]] RankScheduleResult schedule_mh(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs);

[[nodiscard]] RankScheduleResult schedule_eft_oblivious(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs);

}  // namespace bsa::sched
