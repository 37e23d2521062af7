#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"

/// \file link_probe.hpp
/// The one contention rule every scheduler books messages and tasks by.
///
/// A message crossing processors is store-and-forward: each hop starts
/// once the previous one has arrived and occupies its link exclusively,
/// in the earliest idle gap of its duration (insertion slots, the paper's
/// behaviour) or, under `slots=append`, right after the link's last
/// booking. Tasks follow the same rule on their processor. book_route and
/// task_start apply the rule to a live Schedule; LinkProbe answers
/// book_route's question without mutating it, so a trial followed by the
/// matching commit gives the same times (docs/DESIGN_PERF.md).

namespace bsa::sched {

/// Book `links` hop by hop as the continuation of `e`'s route (appended
/// after any hops it already has), the first hop ready at `ready`.
/// Returns the arrival time: the last hop's finish, or `ready` when
/// `links` is empty.
Time book_route(Schedule& s, const net::HeterogeneousCostModel& costs,
                EdgeId e, std::span<const LinkId> links, Time ready,
                bool insertion);

/// Start time the slot rule gives a task of `duration` on processor `p`
/// whose data is ready at `ready` (the schedule is not modified).
[[nodiscard]] Time task_start(const Schedule& s, ProcId p, Time ready,
                              Time duration, bool insertion);

/// Tentative book_route over a per-link overlay of the schedule.
///
/// Per trial: begin(), then hide() for every hop the trial frees, then
/// route() for each message in booking order. A link's overlay is built on
/// its first route() of the trial from the schedule's bookings minus
/// hidden hops; tentative hops are merged into it so later route() calls
/// of the trial see them. Overlays and hidden-edge marks are epoch-stamped
/// and pooled: a long-lived probe allocates nothing in steady state.
class LinkProbe {
 public:
  /// Probe `s` (must outlive the probe) under the given slot rule.
  LinkProbe(const Schedule& s, const net::HeterogeneousCostModel& costs,
            bool insertion);

  /// Start a trial: no hop hidden, no tentative booking.
  void begin();
  /// Treat hops [from_hop, end) of `e`'s current route as free for this
  /// trial (from_hop = 0: the whole route). Must precede the trial's
  /// first route().
  void hide(EdgeId e, int from_hop);
  /// Tentatively book `links` for `e` from `ready`, exactly as book_route
  /// would; returns the arrival time. When `hops` is given, the tentative
  /// hops are appended to it.
  Time route(EdgeId e, std::span<const LinkId> links, Time ready,
             std::vector<Hop>* hops = nullptr);

  /// Trials begun so far (an observability counter).
  [[nodiscard]] std::int64_t trials() const noexcept { return trial_; }

 private:
  std::vector<Interval>& overlay(LinkId l);

  const Schedule& s_;
  const net::HeterogeneousCostModel& costs_;
  bool insertion_;
  int trial_ = 0;
  std::vector<int> hidden_trial_;  // by EdgeId; sized on first hide()
  std::vector<int> hidden_from_;   // by EdgeId
  std::vector<int> link_trial_;    // by LinkId
  std::vector<std::size_t> link_slot_;  // by LinkId -> index into pool_
  std::vector<std::vector<Interval>> pool_;
  std::size_t used_ = 0;  // pool_ slots in use this trial
};

}  // namespace bsa::sched
