#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "sched/link_probe.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/schedule.hpp"

/// \file list_common.hpp
/// Machinery shared by the traditional list-scheduling baselines (DLS, MH,
/// HEFT, PEFT and the contention-oblivious EFT): the data-ready probe that
/// routes a task's incoming messages along pre-computed shortest-path
/// routes while booking contended link slots by the rule every scheduler
/// shares (sched::book_route / sched::LinkProbe, link_probe.hpp), and the
/// ready pool and commit step of one list-scheduler run (ListRun).
///
/// This is exactly the "routing table" design the paper contrasts BSA
/// against (§1): routes are fixed per processor pair; only the time slots
/// adapt.

namespace bsa::baselines {

/// Data-ready times of tasks on processors for one list-scheduler run:
/// every incoming message is routed from its predecessor's processor to
/// `p` along `table` routes, its store-and-forward hops taking the
/// earliest free link slots (insertion based), messages in ascending
/// edge id. One owner per run keeps one sched::LinkProbe and one route
/// buffer, so a call allocates nothing in steady state.
///
/// tentative() is a probe trial and leaves `s` untouched; commit() books
/// the same hops with sched::book_route. Both give identical times
/// because the messages are booked in the same deterministic order.
/// contention_free() is the estimate with every link idle.
/// All of `t`'s predecessors must be placed.
class DataReadyProbe {
 public:
  /// `s`, `table` and `costs` must outlive the probe.
  DataReadyProbe(sched::Schedule& s, const net::RoutingTable& table,
                 const net::HeterogeneousCostModel& costs);

  /// When `links` is given, every link a message of the trial crosses
  /// is appended to it (a link crossed twice appears twice).
  [[nodiscard]] Time tentative(TaskId t, ProcId p,
                               std::vector<LinkId>* links = nullptr);
  Time commit(TaskId t, ProcId p);
  /// Contention-oblivious estimate: every hop starts the moment its data
  /// is available, as if links were idle (EFT's decisions).
  [[nodiscard]] Time contention_free(TaskId t, ProcId p);

 private:
  template <bool Commit>
  Time data_ready(TaskId t, ProcId p, std::vector<LinkId>* links);

  sched::Schedule& s_;
  const net::RoutingTable& table_;
  const net::HeterogeneousCostModel& costs_;
  sched::LinkProbe probe_;
  std::vector<LinkId> links_;  // route buffer, reused per message
};

/// One-call form of DataReadyProbe: tentative (commit = false) or
/// committed data-ready time of `t` on `p`. Builds a probe per call; a
/// scheduler run holds one DataReadyProbe instead.
[[nodiscard]] Time incoming_data_ready(sched::Schedule& s,
                                       const net::RoutingTable& table,
                                       const net::HeterogeneousCostModel& costs,
                                       TaskId t, ProcId p, bool commit);

/// The ready pool and commit step of one list-scheduler run. The pool
/// holds the tasks whose predecessors are all placed: the sources by
/// ascending id, then each commit's newly ready successors in out-edge
/// order. A scheduler picks a ready task and a processor by probing
/// (probe(), task_slot()), then commit() books it. Tasks take their
/// processor slot by `insertion` (sched::task_start's rule); messages
/// always take insertion-based link slots.
class ListRun {
 public:
  /// Fill `out.schedule` (empty) and `out.order`; `out`, `table` and
  /// `costs` must outlive the run.
  ListRun(sched::RankScheduleResult& out, const net::RoutingTable& table,
          const net::HeterogeneousCostModel& costs, bool insertion);

  [[nodiscard]] const std::vector<TaskId>& ready() const noexcept {
    return ready_;
  }
  [[nodiscard]] DataReadyProbe& probe() noexcept { return probe_; }

  /// Start the slot rule gives a task of `duration` on `p` whose data is
  /// ready at `ready`: the earliest idle gap, or after `p`'s last task
  /// (sched::task_start).
  [[nodiscard]] Time task_slot(ProcId p, Time ready, Time duration) const {
    return sched::task_start(s_, p, ready, duration, insertion_);
  }

  /// Book the messages of ready()[i] to `p`, place it in its slot,
  /// append it to the order and release its successors into the pool.
  /// Returns its start time.
  Time commit(std::size_t i, ProcId p);

  /// Index in ready() of the task of highest `ranks` (by TaskId); ties go
  /// to the smaller task id.
  [[nodiscard]] std::size_t highest_ranked(
      const std::vector<Cost>& ranks) const;

  /// Reorder the pool by ascending task id.
  void sort_ready() { std::sort(ready_.begin(), ready_.end()); }

 private:
  sched::Schedule& s_;
  std::vector<TaskId>& order_;
  const net::HeterogeneousCostModel& costs_;
  bool insertion_;
  DataReadyProbe probe_;
  std::vector<TaskId> ready_;
  std::vector<int> missing_preds_;  // by TaskId
};

}  // namespace bsa::baselines
