#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "obs/hooks.hpp"
#include "sched/retime.hpp"
#include "sched/retime_context.hpp"
#include "sched/schedule.hpp"

/// \file move_engine.hpp
/// The guarded-move engine: the one transaction, re-time and
/// replay-fallback path for moving a task on a live schedule, driven by
/// BSA's migrations and by SA's and refine's moves. It owns the bound
/// schedule's sched::RetimeContext, a reusable Schedule::Transaction and
/// a sched::Replayer workspace. A move is
///
///  1. `begin(t, journal)`: build the context on first use, open the
///     transaction when `journal` is set, capture the structure around t;
///  2. the caller's schedule mutations;
///  3. `settle()`: re-time incrementally and return the makespan, or on
///     an order cycle measure the replay in the workspace (restoring a
///     journaled move at once, in O(touched)); then `keep()` commits or
///     swaps the replay in, or `discard()` rolls back and undoes.
///
/// No schedule is ever copied (docs/DESIGN_PERF.md). The engine's own
/// move (`propose` / `evaluate` / `apply`) clears the task's routes,
/// re-routes its crossing messages along static shortest paths at the
/// earliest free link slots and lands the task in its earliest insertion
/// slot.
///
/// Tests check every move against reference engines through an
/// Observer (tests/bsa_oracle.hpp): the engine reports each stage of a
/// move to the one installed on its thread, if any.

namespace bsa::core {

/// The in-edges of `t` whose source is not on `p`, in the order a static
/// re-routing books them: by source finish time, then edge id. Writes
/// into the reused buffer `out`.
void crossing_in_edges_into(const sched::Schedule& s, TaskId t, ProcId p,
                            std::vector<EdgeId>& out);

class MoveEngine {
 public:
  /// Bind to `s` (must outlive the engine) for moves the caller mutates
  /// itself; nothing is built before the first begin, when `s` must be a
  /// re-timing fixpoint. Spans go to `hooks.tracer`.
  MoveEngine(sched::Schedule& s, const net::HeterogeneousCostModel& costs,
             bool insertion_slots, const obs::Hooks& hooks);
  /// Bind to complete `s` for evaluate / apply: build the routing table
  /// and pull `s` to its earliest-time fixpoint.
  MoveEngine(sched::Schedule& s, const net::HeterogeneousCostModel& costs);

  MoveEngine(const MoveEngine&) = delete;
  MoveEngine& operator=(const MoveEngine&) = delete;

  /// Start a move of placed task `t`, journaled (discardable) or not.
  void begin(TaskId t, bool journal);
  /// Re-time the move (or measure its replay) and return its makespan.
  [[nodiscard]] Time settle();
  /// Whether the settled move fell back to a replay.
  [[nodiscard]] bool replayed() const noexcept { return replayed_; }
  void keep();
  /// Undo the settled move bit-exactly; PreconditionError if unjournaled.
  void discard();

  /// The engine's own move of `t` to `p`, journaled and settled: returns
  /// its makespan; the caller then calls keep() or discard().
  [[nodiscard]] Time propose(TaskId t, ProcId p);
  /// Makespan after moving `t` to `p`; the schedule is left bit-exact
  /// (propose, then discard).
  [[nodiscard]] Time evaluate(TaskId t, ProcId p);
  /// Move `t` to `p` for real and re-time.
  void apply(TaskId t, ProcId p);

  struct Stats {
    std::int64_t replay_fallbacks = 0;  ///< re-timing cycles resolved by replay
    /// Journal of journaled moves at settle: deepest, and records in total.
    std::int64_t txn_journal_hwm = 0;
    std::int64_t txn_journal_records = 0;
    sched::RetimeContext::Stats retime;  ///< zero before the first begin
  };
  [[nodiscard]] Stats stats() const;
  /// The context's check_consistency (testing aid).
  [[nodiscard]] std::string check_consistency() const;

  /// The stages of a move: begun, mutated (settle starts), settled, kept
  /// or discarded.
  enum class Stage { kBegun, kSettling, kSettled, kKept, kDiscarded };
  /// Test seam: sees every move of the engines on the thread where it is
  /// installed (only tests install one, through MoveEngineTestPeer). It
  /// reads; it cannot change a result.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on(Stage stage, const MoveEngine& engine) = 0;
  };

 private:
  void notify(Stage stage) const {
    if (observer_ != nullptr) observer_->on(stage, *this);
  }
  void apply_move_mutations(TaskId t, ProcId p);
  void swap_replay_in();

  sched::Schedule& s_;
  const net::HeterogeneousCostModel& costs_;
  obs::Hooks hooks_;  ///< spans only
  std::optional<net::RoutingTable> table_;  ///< evaluate / apply only
  std::optional<sched::RetimeContext> ctx_;
  sched::Schedule::Transaction txn_;
  sched::Replayer replayer_;
  Stats stats_;
  TaskId task_ = kInvalidTask;  ///< the move in progress
  bool journaled_ = false;
  bool replayed_ = false;
  std::vector<EdgeId> order_;  ///< buffers of the engine's own move
  std::vector<LinkId> route_;

  static constinit thread_local Observer* observer_;
  /// Installs the observer and reads the move's state (tests).
  friend struct MoveEngineTestPeer;
};

}  // namespace bsa::core
