#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "sched/schedule.hpp"

/// \file retime_context.hpp
/// Incremental, change-driven re-timing engine.
///
/// A full rebuild re-times a schedule by building the whole
/// order-constraint graph — one node per task plus one per route hop,
/// edges for precedence, route chaining, processor order and link
/// transmission order — and running a Kahn longest-path sweep over it.
/// The tests keep that rebuild as their reference (tests/bsa_oracle.hpp).
///
/// RetimeContext keeps that graph alive across migrations, together with
/// a topological order of it, and applies each migration as a *delta*:
///
///  * **Structure.** Only the hop chains of the migrated task's incident
///    messages are re-allocated, the task is spliced out of its old and
///    into its new processor chain (touching only its neighbours), and
///    the link chains of the old and new routes are re-linked. Every node
///    whose predecessor set may have changed becomes a *seed*.
///  * **Maintained order.** Every live node holds a slot with an
///    increasing label in an order-maintenance list; labels are a
///    topological order. The migrated task and the re-allocated hop nodes
///    take new slots right behind their latest predecessor, which keeps
///    the order close to the time axis.
///  * **Order repair.** Every new edge ends at a seed, and only the
///    re-placed nodes can turn an old edge backwards. Each backward edge
///    is repaired with Pearce & Kelly's bounded search ("A dynamic
///    topological sort algorithm for DAGs", JEA 2006), which reorders
///    only nodes labelled between its endpoints. That search is also the
///    cycle check: the old graph is acyclic, so the new one has a cycle
///    iff some repair reaches its own source. A cycle is reported before
///    any time is written.
///  * **Change-driven sweep.** A worklist ordered by label is drained
///    from the seeds; a node's successors are enqueued only when its
///    finish time actually moved, and only nodes whose times moved are
///    written back to the schedule.
///
/// The times are the unique longest-path fixpoint, computed with the same
/// `max` and `+` as the full rebuild, so schedules are bit-identical to
/// it — tests/retime_context_test.cpp checks this against the reference
/// after every delta of randomized migration streams, and through a
/// core::MoveEngine::Observer after every move of BSA, SA and refine.
///
/// A failed (cyclic) delta writes no times, so a Replayer can measure the
/// mutated schedule as it stands. After the schedule is restored
/// (transaction rollback or snapshot copy), `undo_migration` undoes the
/// delta exactly like a successful one, in O(touched); after it is
/// replaced with a replay result (Replayer::swap_into), `adopt_schedule`
/// re-reads it without a time sweep (a replay result is already a
/// fixpoint). The context never needs a silent full rebuild. In the
/// schedulers, core::MoveEngine (BSA, SA and refine) drives it.

namespace bsa::sched {

class RetimeContext {
 public:
  /// Bind to `s` and `costs` (both must outlive the context) and adopt
  /// the schedule's current state (see adopt_schedule).
  RetimeContext(Schedule& s, const net::HeterogeneousCostModel& costs);

  RetimeContext(const RetimeContext&) = delete;
  RetimeContext& operator=(const RetimeContext&) = delete;

  /// Rebuild everything from the schedule and recompute every node —
  /// behaviourally identical to the full rebuild. Returns false (schedule
  /// untouched) when the recorded orders are cyclic; the caller then
  /// replays and calls adopt_schedule.
  bool retime_full(Time* makespan = nullptr);

  /// Capture the pre-migration structure around task `t` (placed). Must
  /// be called before the migration mutates the schedule.
  void begin_migration(TaskId t);

  /// Apply the structural delta around `t` after the migration's
  /// schedule mutations and re-time what moved. Requires a matching
  /// `begin_migration(t)`. Returns false — no time written — when the new
  /// orders are cyclic. The caller must then either restore the
  /// pre-migration schedule and call undo_migration, or replace the
  /// schedule (replay) and call adopt_schedule.
  bool retime_migration(TaskId t, Time* makespan = nullptr);

  /// Mirror a restore of the pre-migration schedule (transaction
  /// rollback or snapshot copy) after the last retime_migration(t),
  /// successful or not: restore the node times it wrote, rebuild the hop
  /// chains of `t`'s incident messages from the restored routes and
  /// re-link the touched chains. No sweep, no schedule writes —
  /// O(touched).
  void undo_migration(TaskId t);

  /// Re-read a schedule that was replaced wholesale (a kept replay):
  /// rebuild the structure and the order and adopt its times. Runs no
  /// time sweep — the schedule must be a re-timing fixpoint, which a
  /// replay result is. A cyclic schedule leaves the context unusable
  /// until it adopts an acyclic one or a retime_full succeeds.
  void adopt_schedule();

  /// Perf counters for benches and traces.
  struct Stats {
    std::int64_t migrations = 0;       ///< successful delta re-timings
    std::int64_t undos = 0;            ///< undo_migration calls
    std::int64_t full_rebuilds = 0;    ///< construction, adoption, retime_full
    std::int64_t nodes_recomputed = 0; ///< nodes the sweeps recomputed
    std::int64_t node_count = 0;       ///< active constraint-graph nodes
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Testing aid: verify the full node/chain/time/order structure against
  /// the bound schedule. Returns a description of the first
  /// inconsistency, empty when the context mirrors the schedule exactly
  /// and its order is topological. O(schedule) — used by tests, not on
  /// the hot path.
  [[nodiscard]] std::string check_consistency() const;

 private:
  static constexpr int kNone = -1;
  using Label = std::uint64_t;

  // --- node identity ------------------------------------------------------
  // Tasks occupy node ids [0, num_tasks); hop nodes are pool-allocated
  // beyond that and recycled through free_.
  [[nodiscard]] bool is_task_node(int v) const noexcept {
    return v < num_tasks_;
  }
  [[nodiscard]] bool is_live(int v) const noexcept {
    return is_task_node(v)
               ? task_active_[static_cast<std::size_t>(v)] != 0
               : node_edge_[static_cast<std::size_t>(v)] != kInvalidEdge;
  }
  int alloc_hop_node(EdgeId e, int k, LinkId link);
  void free_edge_nodes(EdgeId e);

  // --- structure ----------------------------------------------------------
  /// Adopt the whole schedule: structure, times and a fresh order.
  void build();
  /// Re-allocate the hop nodes of `e` from its route (no order slots).
  void rebuild_edge_hops(EdgeId e);
  /// Give node `v` a slot right behind its latest placed predecessor.
  void place_after_preds(int v);
  /// Splice `t` out of its chain in the context and into the position
  /// the schedule's processor order gives it.
  void relink_task(TaskId t);
  void relink_link_chain(LinkId l);
  void seed(int v) { seeds_.push_back(v); }
  void apply_structure_delta(TaskId t);

  // --- topological order --------------------------------------------------
  // An order-maintenance list of slots carrying increasing labels; every
  // live node owns one slot, and the order is topological: for every
  // constraint edge u -> v, label(u) < label(v).
  [[nodiscard]] Label label(int v) const {
    return node_label_[static_cast<std::size_t>(v)];
  }
  int new_slot_after(int slot);
  void assign_slot(int v, int slot);
  void release_slot(int v);
  void relabel_all();
  /// Kahn order over all live nodes; false on cycle.
  bool order_from_scratch();
  /// Repair every backward in-edge of a seed; false on cycle.
  bool repair_order();
  /// Pearce-Kelly repair of edge u -> v with label(u) > label(v); false
  /// when v reaches u (cycle).
  bool reorder(int u, int v);

  // --- sweep --------------------------------------------------------------
  /// Change-driven longest-path sweep from seeds_ (and the successors of
  /// forced_), writing moved nodes back to the schedule.
  void sweep();
  [[nodiscard]] Time task_makespan() const;
  void count_nodes();

  template <typename Fn>
  void for_each_pred(int v, Fn&& fn) const;
  template <typename Fn>
  void for_each_succ(int v, Fn&& fn) const;

  Schedule* s_;
  const net::HeterogeneousCostModel* costs_;
  const graph::TaskGraph* g_;
  int num_tasks_ = 0;

  // Node payload, indexed by node id.
  std::vector<Time> start_, finish_, dur_;
  std::vector<EdgeId> node_edge_;  // kInvalidEdge for task and free nodes
  std::vector<int> node_k_;
  std::vector<LinkId> node_link_;
  std::vector<char> task_active_;  // by TaskId

  std::vector<std::vector<int>> hop_nodes_;  // by EdgeId
  // The node a message leaves from / arrives through (first / last hop,
  // or the other endpoint task for an empty route; kNone if unplaced).
  std::vector<int> departure_node_, arrival_node_;  // by EdgeId
  std::vector<int> free_;                    // recycled hop node ids

  // Chain neighbours (the order constraints that are not derivable from
  // the task graph alone) and each hop node's index in its link's
  // booking list, which write-back hands to Schedule::set_hop_times.
  std::vector<TaskId> proc_prev_, proc_next_;  // by TaskId
  std::vector<int> link_prev_, link_next_;     // by node id
  std::vector<int> link_pos_;                  // by node id

  // Order-maintenance list (slot ids are independent of node ids).
  std::vector<Label> slot_label_;
  std::vector<int> slot_next_, slot_prev_, slot_node_;
  std::vector<int> node_slot_;     // by node id, kNone when free
  std::vector<Label> node_label_;  // by node id: label of its slot
  std::vector<int> free_slots_;
  int head_slot_ = kNone, tail_slot_ = kNone;

  // Scratch (epoch-stamped marks so clears are O(touched)).
  std::vector<int> mark_;
  int epoch_ = 0;
  std::vector<int> seeds_, forced_, stack_, fwd_, bwd_, slots_, indeg_;

  /// Worklist of the sweep: a radix heap over labels. It relies on the
  /// sweep's monotonicity — every node pushed after a pop is a successor
  /// of the popped node, so its label is larger — and in exchange pushes
  /// in O(1) and pops in amortized O(log label range), without the
  /// unpredictable comparisons of a binary heap. Although a pop re-files
  /// the bucket it takes, a std::push_heap/pop_heap worklist in its place
  /// (same pop order: labels are distinct) made perfbench's bsa-random
  /// slower, batch_s 2.36–2.58 s against 1.79–1.88 s in 6 of 6 pairs
  /// (docs/DESIGN_RETIME.md).
  class LabelQueue {
   public:
    /// Start a new sweep; the queue must have been drained.
    void restart() noexcept { last_ = 0; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    void push(Label key, int v);
    /// Remove and return the node with the smallest label.
    int pop();

   private:
    [[nodiscard]] int bucket(Label key) const noexcept {
      return key == last_ ? 0 : 64 - std::countl_zero(key ^ last_);
    }
    /// Put an entry in its bucket (size_ unchanged).
    void file(Label key, int v);
    std::array<std::vector<std::pair<Label, int>>, 65> buckets_;
    /// Bit b - 1 set while bucket b (1..64) is non-empty.
    std::uint64_t nonempty_ = 0;
    Label last_ = 0;
    std::size_t size_ = 0;
  };
  LabelQueue queue_;

  // Previous times of the nodes the last sweep changed, for
  // undo_migration. Entries naming hop nodes of the migrated task's
  // edges are overwritten harmlessly (those chains are rebuilt).
  struct TimeUndo {
    int node = 0;
    Time start = 0, finish = 0;
  };
  std::vector<TimeUndo> time_undo_;

  // begin_migration capture, and the last applied delta.
  TaskId pending_task_ = kInvalidTask;
  std::vector<LinkId> pre_links_;
  TaskId last_task_ = kInvalidTask;
  std::vector<LinkId> last_links_;

  /// The structure holds a cycle (failed delta or cyclic adopted
  /// schedule): no migration may start until it is undone or replaced.
  bool cyclic_ = false;
  Stats stats_;
};

}  // namespace bsa::sched
