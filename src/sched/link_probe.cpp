#include "sched/link_probe.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bsa::sched {

Time book_route(Schedule& s, const net::HeterogeneousCostModel& costs,
                EdgeId e, std::span<const LinkId> links, Time ready,
                bool insertion) {
  for (const LinkId l : links) {
    const Time dur = costs.comm_cost(e, l);
    Time start = 0;
    if (insertion) {
      start = s.earliest_link_slot(l, ready, dur);
    } else {
      const auto& q = s.bookings_on(l);
      start = std::max(ready, q.empty() ? Time{0} : q.back().finish);
    }
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
      link_trial_(static_cast<std::size_t>(s.topology().num_links()), 0),
      link_slot_(link_trial_.size(), 0) {}

void LinkProbe::begin() {
  ++trial_;
  used_ = 0;
}

void LinkProbe::hide(EdgeId e, int from_hop) {
  BSA_REQUIRE(trial_ > 0 && used_ == 0,
              "LinkProbe::hide outside a trial or after its first route");
  if (hidden_trial_.empty()) {
    const auto ne = static_cast<std::size_t>(s_.task_graph().num_edges());
    hidden_trial_.assign(ne, 0);
    hidden_from_.assign(ne, 0);
  }
  hidden_trial_[static_cast<std::size_t>(e)] = trial_;
  hidden_from_[static_cast<std::size_t>(e)] = from_hop;
}

std::vector<Interval>& LinkProbe::overlay(LinkId l) {
  const auto li = static_cast<std::size_t>(l);
  if (link_trial_[li] == trial_) return pool_[link_slot_[li]];
  link_trial_[li] = trial_;
  if (used_ == pool_.size()) pool_.emplace_back();
  link_slot_[li] = used_;
  std::vector<Interval>& busy = pool_[used_++];
  busy.clear();
  const bool any_hidden = !hidden_trial_.empty();
  for (const LinkBooking& b : s_.bookings_on(l)) {
    const auto ei = static_cast<std::size_t>(b.edge);
    if (any_hidden && hidden_trial_[ei] == trial_ &&
        b.hop_index >= hidden_from_[ei]) {
      continue;
    }
    busy.push_back(Interval{b.start, b.finish});
  }
  return busy;
}

Time LinkProbe::route(EdgeId e, std::span<const LinkId> links, Time ready,
                      std::vector<Hop>* hops) {
  BSA_REQUIRE(trial_ > 0, "LinkProbe::route before begin");
  for (const LinkId l : links) {
    const Time dur = costs_.comm_cost(e, l);
    std::vector<Interval>& busy = overlay(l);
    const Time tail = busy.empty() ? Time{0} : busy.back().finish;
    const Time start =
        insertion_ ? earliest_fit(busy, ready, dur) : std::max(ready, tail);
    insert_interval(busy, Interval{start, start + dur});
    if (hops != nullptr) hops->push_back(Hop{l, start, start + dur});
    ready = start + dur;
  }
  return ready;
}

}  // namespace bsa::sched
