#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "sched/rank_schedulers.hpp"

/// \file dls.hpp
/// The Dynamic Level Scheduling (DLS) baseline of Sih & Lee (IEEE TPDS
/// 1993), the comparison algorithm of the paper's evaluation (§3).
///
/// DLS is a greedy dynamic list scheduler. At every step it evaluates all
/// (ready task, processor) pairs and commits the pair with the largest
/// *dynamic level*
///
///     DL(T_i, P_x) = SL*(T_i) − max(DA(T_i,P_x), TF(P_x)) + Δ(T_i,P_x)
///
/// where SL* is the static level (longest exec-cost chain using each
/// task's *median* execution cost across processors), DA the earliest
/// data-arrival time of the task's messages at P_x (routed hop by hop
/// along a shortest-path routing table, respecting link contention), TF
/// the time P_x finishes its last scheduled task, and
/// Δ(T_i,P_x) = median_exec(T_i) − exec(T_i,P_x) accounts for processor
/// heterogeneity (large when P_x is fast for T_i).
///
/// DLS shares the ready pool and commit step of the static-priority list
/// schedulers (baselines::ListRun, append task slots) and returns their
/// result, with the static levels as its `ranks`.
///
/// DA(T_i,P_x) is cached per pair: a ready task's predecessors are all
/// placed and nothing is ever un-booked, so it changes only when a hop is
/// booked on a link of one of its routes. An entry is invalidated when
/// the commit of a step books such a link and is recomputed on its next
/// evaluation; TF, the dynamic level and the tie order are recomputed at
/// every step, so the schedule is the one re-probing every pair gives
/// (docs/DESIGN_PERF.md).

namespace bsa::baselines {

struct DlsOptions {
  /// Tie-breaking seed. 0 (default): fully deterministic ties towards
  /// smaller task id, then processor id. Non-zero: equal dynamic levels
  /// are broken by a stateless hash of (seed, task, processor) — a
  /// deterministic shuffle of the tie order, exposed through the
  /// scheduler registry as "dls:seed=N".
  std::uint64_t seed = 0;
};

/// Run DLS. The returned schedule is complete and valid; `ranks` holds
/// the static levels SL* used for the dynamic levels.
[[nodiscard]] sched::RankScheduleResult schedule_dls(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs, const DlsOptions& options = {});

}  // namespace bsa::baselines
