#include "sched/link_probe.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bsa::sched {
namespace {

/// The slot rule on a live link: the earliest idle gap, or after the
/// link's last booking.
Time link_slot(const Schedule& s, LinkId l, Time ready, Time duration,
               bool insertion) {
  if (insertion) return s.earliest_link_slot(l, ready, duration);
  const auto& q = s.bookings_on(l);
  return std::max(ready, q.empty() ? Time{0} : q.back().finish);
}

}  // namespace

Time book_route(Schedule& s, const net::HeterogeneousCostModel& costs,
                EdgeId e, std::span<const LinkId> links, Time ready,
                bool insertion) {
  for (const LinkId l : links) {
    const Time dur = costs.comm_cost(e, l);
    const Time start = link_slot(s, l, ready, dur, insertion);
    s.append_hop(e, Hop{l, start, start + dur});
    ready = start + dur;
  }
  return ready;
}

Time task_start(const Schedule& s, ProcId p, Time ready, Time duration,
                bool insertion) {
  if (insertion) return s.earliest_task_slot(p, ready, duration);
  const auto& order = s.tasks_on(p);
  return std::max(ready, order.empty() ? Time{0} : s.finish_of(order.back()));
}

LinkProbe::LinkProbe(const Schedule& s,
                     const net::HeterogeneousCostModel& costs, bool insertion)
    : s_(s),
      costs_(costs),
      insertion_(insertion),
      marks_(static_cast<std::size_t>(s.topology().num_links())) {}

void LinkProbe::begin() {
  ++trial_;
  routed_ = false;
  used_ = 0;
}

void LinkProbe::hide(EdgeId e, int from_hop) {
  BSA_REQUIRE(trial_ > 0 && !routed_,
              "LinkProbe::hide outside a trial or after its first route");
  if (hidden_trial_.empty()) {
    const auto ne = static_cast<std::size_t>(s_.task_graph().num_edges());
    hidden_trial_.assign(ne, 0);
    hidden_from_.assign(ne, 0);
  }
  hidden_trial_[static_cast<std::size_t>(e)] = trial_;
  hidden_from_[static_cast<std::size_t>(e)] = from_hop;
  const std::vector<Hop>& route = s_.route_of(e);
  for (std::size_t k = static_cast<std::size_t>(std::max(from_hop, 0));
       k < route.size(); ++k) {
    LinkMark& mark = marks_[static_cast<std::size_t>(route[k].link)];
    mark.trial = trial_;
    mark.state = LinkMark::State::kHidden;
  }
}

std::vector<Interval>& LinkProbe::overlay(LinkId l, LinkMark& mark) {
  if (mark.state == LinkMark::State::kOverlay) return pool_[mark.slot];
  if (used_ == pool_.size()) pool_.emplace_back();
  std::vector<Interval>& busy = pool_[used_];
  busy.clear();
  const bool hidden = mark.state == LinkMark::State::kHidden;
  for (const LinkBooking& b : s_.bookings_on(l)) {
    const auto ei = static_cast<std::size_t>(b.edge);
    if (hidden && hidden_trial_[ei] == trial_ &&
        b.hop_index >= hidden_from_[ei]) {
      continue;
    }
    busy.push_back(Interval{b.start, b.finish});
  }
  if (mark.state == LinkMark::State::kFirst) {
    insert_interval(busy, mark.first);
  }
  mark.state = LinkMark::State::kOverlay;
  mark.slot = used_++;
  return busy;
}

Time LinkProbe::route(EdgeId e, std::span<const LinkId> links, Time ready,
                      std::vector<Hop>* hops) {
  BSA_REQUIRE(trial_ > 0, "LinkProbe::route before begin");
  routed_ = true;
  for (const LinkId l : links) {
    const Time dur = costs_.comm_cost(e, l);
    LinkMark& mark = marks_[static_cast<std::size_t>(l)];
    Time start = 0;
    if (mark.trial != trial_) {
      // First touch of a link no hidden hop sits on: the schedule's own
      // answer, exactly book_route's.
      start = link_slot(s_, l, ready, dur, insertion_);
      mark.trial = trial_;
      mark.state = LinkMark::State::kFirst;
      mark.first = Interval{start, start + dur};
    } else {
      std::vector<Interval>& busy = overlay(l, mark);
      const Time tail = busy.empty() ? Time{0} : busy.back().finish;
      start =
          insertion_ ? earliest_fit(busy, ready, dur) : std::max(ready, tail);
      insert_interval(busy, Interval{start, start + dur});
    }
    if (hops != nullptr) hops->push_back(Hop{l, start, start + dur});
    ready = start + dur;
  }
  return ready;
}

}  // namespace bsa::sched
