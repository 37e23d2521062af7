#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "sched/retime.hpp"
#include "sched/retime_context.hpp"
#include "sched/schedule.hpp"

/// \file move_engine.hpp
/// Transactional single-task move evaluation over a live schedule.
///
/// The engine owns the machinery that core::refine_schedule and the
/// simulated-annealing scheduler share: one bound Schedule, one persistent
/// sched::RetimeContext, and one reusable Schedule::Transaction. A
/// candidate move (migrate task t to processor p) is
///
///  * evaluated by journaling its mutations into the transaction,
///    re-timing the affected region incrementally, reading the resulting
///    makespan and rolling everything back — O(touched) per rejected
///    move, never a schedule rebuild (docs/DESIGN_PERF.md);
///  * applied by performing the same mutations for real and committing.
///
/// Move semantics (shared by both callers): the task's incident routes
/// are cleared, crossing messages re-route along static shortest paths
/// booking earliest free link slots (incoming messages in deterministic
/// source-finish order), and the task lands in its earliest insertion
/// slot. On a re-timing cycle the move falls back to a replay in the
/// engine's sched::Replayer workspace: an evaluation measures the
/// mutated schedule there and still rolls back in O(touched); an applied
/// move swaps the replayed schedule in. No schedule is ever copied.

namespace bsa::core {

class MoveEngine {
 public:
  /// Bind to `s` (complete; must outlive the engine) and pull it to its
  /// earliest-time fixpoint so the incremental re-timing deltas start
  /// from consistent ground.
  MoveEngine(sched::Schedule& s, const net::HeterogeneousCostModel& costs);

  MoveEngine(const MoveEngine&) = delete;
  MoveEngine& operator=(const MoveEngine&) = delete;

  /// Makespan the schedule would have after moving `t` to `p`; the
  /// schedule is restored bit-exactly before returning.
  [[nodiscard]] Time evaluate(TaskId t, ProcId p);

  /// Move `t` to `p` for real and re-time.
  void apply(TaskId t, ProcId p);

  struct Stats {
    std::int64_t evaluated = 0;         ///< trial moves measured + rolled back
    std::int64_t applied = 0;           ///< moves committed
    std::int64_t replay_fallbacks = 0;  ///< re-timing cycles resolved by replay
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Counters of the engine's re-timing context.
  [[nodiscard]] const sched::RetimeContext::Stats& retime_stats()
      const noexcept {
    return ctx_.stats();
  }

 private:
  void apply_move_mutations(TaskId t, ProcId p);
  /// Replace the schedule by its replay and re-read it into the context.
  void replay_in_place();

  sched::Schedule& s_;
  const net::HeterogeneousCostModel& costs_;
  net::RoutingTable table_;
  sched::RetimeContext ctx_;
  sched::Schedule::Transaction txn_;
  sched::Replayer replayer_;
  Stats stats_;
};

}  // namespace bsa::core
