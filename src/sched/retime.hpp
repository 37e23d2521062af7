#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"

/// \file retime.hpp
/// Schedule re-timing by replay.
///
/// After BSA migrates a task away from a processor, the tasks left behind
/// (and messages queued behind released link slots) can start earlier —
/// the paper's "bubbling up". Two re-timings realise it:
///
/// 1. *Order preserving*: recompute the earliest consistent start of
///    every task and hop while preserving the task order on every
///    processor and the transmission order on every link (longest path
///    over the order-constraint DAG). This is sched::RetimeContext
///    (retime_context.hpp), incrementally per move. It fails when the
///    recorded orders are cyclic, which can happen transiently right
///    after a migration re-issues outgoing routes with later hop times.
///
/// 2. `Replayer` — *order re-deriving*: keep only the assignment (task ->
///    processor, message -> link sequence) and replay everything through
///    insertion-based list scheduling, processing items in the order of
///    their previous start times. This realises "bubbling up" even when
///    the recorded orders became inconsistent; it cannot deadlock because
///    it only depends on the (acyclic) task graph and route chains. Each
///    replay sorts its items once by (start, kind, id, hop) into an order
///    array, which a scan walks taking the next item whose predecessors
///    are done; items that become ready after the scan passed them wait
///    in a small heap of positions. Bookings that start at or after every
///    finish on their resource append without a slot search.
///
/// BSA, SA and refine move tasks through one engine, core::MoveEngine
/// (core/move_engine.hpp). It re-times each move with the RetimeContext
/// and falls back to replay on a cycle through its one reusable
/// `Replayer` workspace: measuring a replay writes no schedule, and only
/// a kept one is written and swapped in — no schedule copy, no
/// per-replay allocation in steady state. A full-rebuild order-preserving
/// re-timer lives on only in the tests (tests/bsa_oracle.hpp), as the
/// reference a core::MoveEngine::Observer checks every move against.

namespace bsa::sched {

/// Reusable workspace of the order re-deriving replay.
///
/// A replay keeps only the assignment of a schedule (task -> processor,
/// message -> link sequence) and rebuilds all times and resource orders
/// through list scheduling. Priorities are the previous start times
/// (ties: tasks before hops, then ids), so relative placement is
/// preserved wherever feasible. `insertion_slots=false` replays with
/// append-only placement instead (BSA's slot-policy ablation).
///
/// `measure` is a pure computation: it keeps one interval list per
/// processor and link, sorted by (start, finish) (slot queries are
/// sched::earliest_fit, each booking a binary-searched insert, or a push
/// when it starts at or after the list's last finish), the arrival time
/// of every message, and a log of the bookings in the order they were
/// made. Items are taken in exactly the order of a min-heap on (priority,
/// kind, id, hop) over the ready items: numbered in (kind, id, hop) order
/// and stably radix-sorted by priority, they form an order array; a scan
/// takes the next ready item of the array, and an item that becomes
/// ready behind the scan waits in a heap of array positions, whose top
/// precedes every item the scan has not reached. No Schedule is written.
/// `swap_into` — only for a replay that is kept — writes the log into the
/// workspace's own schedule through place_task/append_hop and exchanges
/// it in. All storage keeps its capacity from one replay to the next. Own
/// one per run.
class Replayer {
 public:
  /// A workspace for schedules over `g` and `topo`; all three must
  /// outlive it.
  Replayer(const graph::TaskGraph& g, const net::Topology& topo,
           const net::HeterogeneousCostModel& costs,
           bool insertion_slots = true);

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Replay the assignment of `s` (complete placement, same graph and
  /// topology) and return the replayed makespan. `s` is only read: it
  /// may be mid-transaction. Neither `s` nor the workspace schedule is
  /// written.
  [[nodiscard]] Time measure(const Schedule& s);

  /// Keep the last measured result: write it into the workspace schedule
  /// and exchange that into `s` (no open transaction). `s`'s previous
  /// content becomes the workspace's scratch. Requires a measure since
  /// the last swap_into.
  void swap_into(Schedule& s);

 private:
  /// Book `duration` on `resource` (processors, then links) by the slot
  /// rule from `ready`; returns the start.
  Time book(std::size_t resource, Time ready, Time duration);
  /// Fill order_ with the item numbers stably sorted by key_ (8-bit LSD
  /// radix sort; digits equal on every item are skipped).
  void sort_items();

  /// One booking of a replay: task `id` on processor `resource` (hop
  /// < 0), or hop `hop` of message `id` on link `resource`.
  struct Booked {
    std::int32_t id = 0;
    std::int32_t hop = -1;
    std::int32_t resource = 0;
    Time start = 0;
    Time finish = 0;
  };

  const net::HeterogeneousCostModel* costs_;
  bool insertion_slots_;
  Schedule work_;
  bool measured_ = false;
  // The replayed assignment: per-task processor; routes flat, hops of
  // edge e at [route_off_[e], route_off_[e + 1]) with hop_edge_ the edge
  // of each.
  std::vector<ProcId> proc_;
  std::vector<int> route_off_;
  std::vector<LinkId> route_link_;
  std::vector<EdgeId> hop_edge_;
  // Items: tasks by id, then the flat hops (tie order). Per item: the
  // priority as an order-preserving integer key, its position in order_,
  // and how many of its predecessors are not yet done.
  std::vector<std::uint64_t> key_;
  std::vector<int> order_;
  std::vector<int> sort_tmp_;
  std::vector<int> pos_;
  std::vector<int> waits_;
  /// Positions of the items that became ready behind the scan; a
  /// min-heap.
  std::vector<int> behind_;
  // The measured replay: per-resource timelines (processors, then
  // links), each message's arrival so far (by EdgeId), and the bookings
  // in the order they were made.
  std::vector<std::vector<Interval>> timelines_;
  std::vector<Time> edge_ready_;
  std::vector<Booked> log_;

  /// Testing aid (tests/retime_context_test.cpp): reads the workspace
  /// schedule to show that measure leaves it untouched.
  friend struct ReplayerTestPeer;
};

}  // namespace bsa::sched
