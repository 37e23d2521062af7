#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "sched/link_probe.hpp"
#include "sched/schedule.hpp"

/// \file list_common.hpp
/// Machinery shared by the traditional list-scheduling baselines (DLS, MH,
/// HEFT, PEFT and the contention-oblivious EFT): routing a task's incoming
/// messages along pre-computed shortest-path routes while booking
/// contended link slots by the rule every scheduler shares
/// (sched::book_route / sched::LinkProbe, link_probe.hpp).
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

/// Contention-oblivious estimate of the same quantity: every hop starts
/// the moment its data is available (links are assumed idle). Used by the
/// EFT ablation baseline for its *decisions*.
[[nodiscard]] Time incoming_data_ready_no_contention(
    const sched::Schedule& s, const net::RoutingTable& table,
    const net::HeterogeneousCostModel& costs, TaskId t, ProcId p);

}  // namespace bsa::baselines
