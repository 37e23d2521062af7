#pragma once

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "sched/schedule.hpp"

/// \file retime.hpp
/// Schedule re-timing.
///
/// After BSA migrates a task away from a processor, the tasks left behind
/// (and messages queued behind released link slots) can start earlier —
/// the paper's "bubbling up". Two re-timing engines are provided:
///
/// 1. `try_retime` / `retime` — *order preserving*: recompute the earliest
///    consistent start of every task and hop while preserving the task
///    order on every processor and the transmission order on every link
///    (longest-path sweep over the order-constraint DAG). Fails when the
///    recorded orders are cyclic, which can happen transiently right
///    after a migration re-issues outgoing routes with later hop times.
///
/// 2. `replay_retime` — *order re-deriving*: keep only the assignment
///    (task -> processor, message -> link sequence) and replay everything
///    through insertion-based list scheduling, processing items in the
///    order of their previous start times. This realises "bubbling up"
///    even when the recorded orders became inconsistent; it cannot
///    deadlock because it only depends on the (acyclic) task graph and
///    route chains.
///
/// BSA re-times each migration with the incremental RetimeContext
/// (retime_context.hpp), which reaches the same fixpoint as `try_retime`,
/// and falls back to `replay_retime` on the rare cycle (see
/// core/bsa.cpp). `try_retime` stays the reference: the test oracle
/// behind `core::BsaOptions::validate_each_step` checks every migration
/// against it.

namespace bsa::sched {

/// Order-preserving earliest-time recomputation. Returns true and updates
/// `s` (makespan in *makespan when non-null); returns false — leaving `s`
/// untouched — when the order constraints contain a cycle. Partial
/// schedules are allowed.
[[nodiscard]] bool try_retime(Schedule& s,
                              const net::HeterogeneousCostModel& costs,
                              Time* makespan = nullptr);

/// Throwing wrapper around try_retime: InvariantError on cycle. Returns
/// the resulting makespan.
Time retime(Schedule& s, const net::HeterogeneousCostModel& costs);

/// Rebuild all times (and resource orders) by replaying the current
/// assignment through insertion-based list scheduling. Priorities are the
/// previous start times (ties: tasks before hops, then ids), so relative
/// placement is preserved wherever feasible. `insertion_slots=false`
/// replays with append-only placement instead (BSA's slot-policy
/// ablation). Returns the resulting makespan. Requires a complete
/// placement.
Time replay_retime(Schedule& s, const net::HeterogeneousCostModel& costs,
                   bool insertion_slots = true);

}  // namespace bsa::sched
