#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"

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
/// 2. `Replayer` / `replay_retime` — *order re-deriving*: keep only the
///    assignment (task -> processor, message -> link sequence) and replay
///    everything through insertion-based list scheduling, processing
///    items in the order of their previous start times. This realises
///    "bubbling up" even when the recorded orders became inconsistent; it
///    cannot deadlock because it only depends on the (acyclic) task graph
///    and route chains.
///
/// BSA, SA and refine move tasks through one engine, core::MoveEngine
/// (core/move_engine.hpp). It re-times each move with the incremental
/// RetimeContext (retime_context.hpp), which reaches the same fixpoint as
/// `try_retime`, and falls back to replay on a cycle through its one
/// reusable `Replayer` workspace: measuring a replay writes no schedule,
/// and only a kept one is written and swapped in — no schedule copy, no
/// per-replay allocation in steady state. `try_retime` stays the
/// reference: the test oracle behind `core::BsaOptions::validate_each_step`
/// checks every migration against it.

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
/// sched::earliest_fit, each booking a binary-searched insert), the
/// arrival time of every message, and a log of the bookings in the order
/// they were made. No Schedule is written. `swap_into` — only for a replay
/// that is kept — writes the log into the workspace's own schedule
/// through place_task/append_hop and exchanges it in. All storage keeps
/// its capacity from one replay to the next. Own one per run.
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
  void push(Time prio, int kind, std::int64_t id, int hop);
  /// Book `duration` on `resource` (processors, then links) by the slot
  /// rule from `ready`; returns the start.
  Time book(std::size_t resource, Time ready, Time duration);

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
  // The replayed assignment: per-task processor and priority; routes
  // flat, hops of edge e at [route_off_[e], route_off_[e + 1]).
  std::vector<ProcId> proc_;
  std::vector<Time> task_prio_;
  std::vector<int> route_off_;
  std::vector<LinkId> route_link_;
  std::vector<Time> hop_prio_;
  std::vector<int> task_waits_;
  /// Ready items, a min-heap on (priority, kind 0=task 1=hop, id, hop
  /// index).
  using Item = std::tuple<Time, int, std::int64_t, int>;
  std::vector<Item> heap_;
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

/// One-call replay through a temporary Replayer: rebuild all times (and
/// resource orders) of `s` in place and return the resulting makespan.
/// Requires a complete placement.
Time replay_retime(Schedule& s, const net::HeterogeneousCostModel& costs,
                   bool insertion_slots = true);

}  // namespace bsa::sched
