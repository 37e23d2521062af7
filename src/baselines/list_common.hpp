#pragma once

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
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

/// Compute the data-ready time of task `t` if placed on processor `p`,
/// routing every incoming message from its predecessor's processor to `p`
/// along `table` routes, with store-and-forward hops occupying earliest
/// free link slots (insertion based).
///
/// When `commit` is true the hop bookings are installed into `s` with
/// sched::book_route (predecessors must all be placed); when false the
/// computation is a sched::LinkProbe trial and `s` is left untouched.
/// Tentative and committed results are identical because messages are
/// processed in the same deterministic order (ascending edge id).
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
