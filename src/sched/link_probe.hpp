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

/// Tentative book_route without mutating the schedule.
///
/// Per trial: begin(), then hide() for every hop the trial frees, then
/// route() for each message in booking order. A trial's first route()
/// over a link that no hidden hop sits on is answered straight from the
/// schedule (Schedule::earliest_link_slot, or after the link's last
/// booking under `slots=append`) and only records the tentative hop. A
/// link gets a per-trial overlay (its bookings minus hidden hops, plus
/// the trial's tentative hops) only when the trial touches it a second
/// time or a hidden hop sits on it; later route() calls of the trial see
/// the tentative hops through it. Per-link state and overlays are
/// epoch-stamped and pooled: a long-lived probe allocates nothing in
/// steady state.
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
  /// What the current trial has done to one link (valid while
  /// `trial` is the current trial; untouched otherwise).
  struct LinkMark {
    enum class State : unsigned char { kHidden, kFirst, kOverlay };
    int trial = 0;
    State state = State::kHidden;
    std::size_t slot = 0;  // kOverlay: index into pool_
    Interval first;        // kFirst: the one tentative hop
  };

  std::vector<Interval>& overlay(LinkId l, LinkMark& mark);

  const Schedule& s_;
  const net::HeterogeneousCostModel& costs_;
  bool insertion_;
  int trial_ = 0;
  bool routed_ = false;            // route() ran in this trial
  std::vector<int> hidden_trial_;  // by EdgeId; sized on first hide()
  std::vector<int> hidden_from_;   // by EdgeId
  std::vector<LinkMark> marks_;    // by LinkId
  std::vector<std::vector<Interval>> pool_;
  std::size_t used_ = 0;  // pool_ slots in use this trial
};

}  // namespace bsa::sched
