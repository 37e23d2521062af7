#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/topology.hpp"

/// \file schedule.hpp
/// The schedule data structure shared by all scheduling algorithms.
///
/// A Schedule maps
///  * every task to (processor, start, finish), and
///  * every inter-processor message to a *route*: an ordered list of hops,
///    each hop occupying an exclusive interval on one link.
///
/// Messages between co-located tasks have an empty route. Orders on
/// processors and links are explicit (vectors in execution order); times
/// are kept consistent with those orders by the algorithms (see
/// retime.hpp), so each order is sorted by (start, finish): inserts and
/// booking lookups binary-search it. This mirrors the paper's model where both processors and
/// links are first-class scheduled resources.
///
/// Speculative mutation is supported through a journaled transaction
/// (Schedule::Transaction): while one is active every mutator records its
/// inverse, and rollback_transaction() replays the inverses in reverse —
/// restoring the schedule bit-exactly (including order positions among
/// equal-time ties) in time proportional to the mutations performed, not
/// the schedule size. BSA's makespan-guarded migrations and refine's move
/// evaluation use this instead of whole-schedule snapshot copies (see
/// docs/DESIGN_PERF.md).

namespace bsa::sched {

/// One hop of a message route: the message occupies `link` during
/// [start, finish).
struct Hop {
  LinkId link = kInvalidLink;
  Time start = kUnsetTime;
  Time finish = kUnsetTime;
};

/// A booking on a link timeline, referring back to its message hop.
struct LinkBooking {
  EdgeId edge = kInvalidEdge;
  int hop_index = 0;
  Time start = kUnsetTime;
  Time finish = kUnsetTime;
};

class Schedule {
 public:
  /// Journal of inverse operations for one speculative mutation episode.
  ///
  /// Owned by the caller and reusable: all storage keeps its capacity
  /// across begin/commit/rollback cycles, so a long-lived Transaction
  /// makes guarded mutation allocation-free in steady state. A
  /// Transaction is pure data — it is driven through
  /// Schedule::begin_transaction / commit_transaction /
  /// rollback_transaction and must not outlive mutations it journals
  /// (i.e. roll back or commit before destroying either side).
  class Transaction {
   public:
    Transaction() = default;
    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;

    /// Number of journaled mutations (0 right after begin/commit).
    [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

   private:
    friend class Schedule;

    enum class Op : unsigned char {
      kPlaceTask,     ///< undo: erase task from its processor order
      kUnplaceTask,   ///< undo: re-insert placement at recorded position
      kSetTaskTimes,  ///< undo: restore previous task times
      kAppendHop,     ///< undo: pop last hop, erase its booking
      kEraseHop,      ///< undo: push hop back, re-insert its booking
      kSetHopTimes,   ///< undo: restore previous hop/booking times
    };
    struct Record {
      Op op;
      std::int32_t a = 0;     // primary id: task / edge / proc / link
      std::int32_t b = 0;     // secondary id: proc / link
      std::int32_t idx0 = 0;  // order position / hop index
      std::int32_t idx1 = 0;  // booking position
      Time t0 = 0, t1 = 0;    // previous start / finish
    };

    void reset() noexcept { records_.clear(); }

    std::vector<Record> records_;
  };

  /// An empty schedule over `g` and `topo`; both must outlive the
  /// schedule. Copyable (used for tentative evaluation in tests); a copy
  /// has no open transaction, and none may be open in a schedule that is
  /// copy-assigned into. Moved-from/moved-into schedules must not have
  /// one either (unchecked for moves).
  Schedule(const graph::TaskGraph& g, const net::Topology& topo);
  Schedule(const Schedule& other);
  Schedule& operator=(const Schedule& other);
  Schedule(Schedule&&) noexcept = default;
  Schedule& operator=(Schedule&&) noexcept = default;
  ~Schedule() = default;

  // --- transactions -------------------------------------------------------
  /// Start journaling mutations into `txn` (cleared first). At most one
  /// transaction may be active per schedule; `txn` must stay alive until
  /// the matching commit or rollback.
  void begin_transaction(Transaction& txn);
  /// Stop journaling and discard the journal (mutations are kept).
  void commit_transaction();
  /// Undo every journaled mutation in reverse order, restoring the
  /// schedule bit-exactly to its begin_transaction state, then deactivate
  /// the transaction. Cost is O(mutations journaled), not O(schedule).
  void rollback_transaction();
  [[nodiscard]] bool in_transaction() const noexcept {
    return txn_ != nullptr;
  }

  [[nodiscard]] const graph::TaskGraph& task_graph() const noexcept {
    return *graph_;
  }
  [[nodiscard]] const net::Topology& topology() const noexcept {
    return *topo_;
  }

  // --- task queries -------------------------------------------------------
  [[nodiscard]] bool is_placed(TaskId t) const;
  [[nodiscard]] ProcId proc_of(TaskId t) const;
  [[nodiscard]] Time start_of(TaskId t) const;
  [[nodiscard]] Time finish_of(TaskId t) const;
  /// Tasks assigned to `p` in execution order.
  [[nodiscard]] const std::vector<TaskId>& tasks_on(ProcId p) const;
  [[nodiscard]] int num_placed() const noexcept { return num_placed_; }
  [[nodiscard]] bool all_placed() const {
    return num_placed_ == graph_->num_tasks();
  }
  /// Max finish time over placed tasks (0 when empty) — the paper's
  /// schedule length SL.
  [[nodiscard]] Time makespan() const;

  // --- message queries ----------------------------------------------------
  /// Route of message `e` in hop order; empty for co-located endpoints or
  /// unrouted messages.
  [[nodiscard]] const std::vector<Hop>& route_of(EdgeId e) const;
  /// Bookings on link `l` in transmission order.
  [[nodiscard]] const std::vector<LinkBooking>& bookings_on(LinkId l) const;
  /// Arrival time of message `e` at its destination processor: finish of
  /// the last hop, or finish of the source task when the route is empty.
  [[nodiscard]] Time arrival_of(EdgeId e) const;

  // --- slot search --------------------------------------------------------
  /// Earliest start >= ready of an idle gap of `duration` on processor `p`
  /// (insertion based): sched::earliest_fit over `p`'s task order, read
  /// in place.
  [[nodiscard]] Time earliest_task_slot(ProcId p, Time ready,
                                        Time duration) const;
  /// Earliest start >= ready of an idle gap of `duration` on link `l`:
  /// sched::earliest_fit over its bookings.
  [[nodiscard]] Time earliest_link_slot(LinkId l, Time ready,
                                        Time duration) const;

  // --- wholesale ----------------------------------------------------------
  /// Remove every placement and route in place: the schedule becomes
  /// empty over the same graph and topology while its storage keeps its
  /// capacity (a reused write target, see Replayer). Requires no open
  /// transaction.
  void clear();
  /// Exchange contents (graph, topology, placements, routes and orders)
  /// with `other` in O(1). Requires no open transaction on either side.
  void swap(Schedule& other);

  // --- mutation -----------------------------------------------------------
  /// Assign task `t` to processor `p` at [start, finish). Inserted into
  /// the processor order after every task that is not greater in
  /// (start, finish) order. Throws if already placed.
  void place_task(TaskId t, ProcId p, Time start, Time finish);
  /// Remove `t` from its processor (its routes are untouched).
  void unplace_task(TaskId t);
  /// Update times of a placed task without changing processor or order
  /// (used by re-timing).
  void set_task_times(TaskId t, Time start, Time finish);

  /// Install a route for message `e`, booking every hop on its link.
  /// Requires: e currently has no route; hops contiguous in time
  /// (non-decreasing); each hop's interval free on its link.
  void set_route(EdgeId e, std::vector<Hop> hops);
  /// Append one hop to the (possibly empty) route of `e`, booking it on
  /// its link. The hop must start no earlier than the previous hop's
  /// finish and must not overlap existing bookings on its link.
  void append_hop(EdgeId e, const Hop& hop);
  /// Remove the route of `e` and release its link bookings (no-op when
  /// route already empty).
  void clear_route(EdgeId e);
  /// Update times of one hop without changing link or transmission order
  /// (used by re-timing). The booking is found by its current times, so
  /// its link's bookings must be sorted by (start, finish); a caller
  /// midway through rewriting a link's times uses the overload below.
  void set_hop_times(EdgeId e, int hop_index, Time start, Time finish);
  /// Same, for a caller that knows the hop's index in its link's booking
  /// list (bookings_on); saves the lookup.
  void set_hop_times(EdgeId e, int hop_index, Time start, Time finish,
                     std::size_t booking_pos);

 private:
  struct Placement {
    ProcId proc = kInvalidProc;
    Time start = kUnsetTime;
    Time finish = kUnsetTime;
  };

  void check_task(TaskId t) const;
  void check_edge(EdgeId e) const;
  void check_link(LinkId l) const;
  void check_proc(ProcId p) const;

  const graph::TaskGraph* graph_;
  const net::Topology* topo_;
  std::vector<Placement> placements_;         // by TaskId
  std::vector<std::vector<TaskId>> proc_tasks_;  // by ProcId, execution order
  std::vector<std::vector<Hop>> routes_;      // by EdgeId
  std::vector<std::vector<LinkBooking>> link_bookings_;  // by LinkId
  int num_placed_ = 0;
  /// Active transaction journal; mutators record inverses while set.
  Transaction* txn_ = nullptr;

  /// Testing aid (tests/validate_mutation_test.cpp): the public mutators
  /// keep routes and link bookings in sync by construction, so the
  /// validator's booking/route-mismatch checks are unreachable through
  /// them. The peer corrupts the private state directly to prove those
  /// checks fire.
  friend struct ScheduleTestPeer;
};

}  // namespace bsa::sched
