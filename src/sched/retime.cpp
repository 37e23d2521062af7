#include "sched/retime.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace bsa::sched {

Replayer::Replayer(const graph::TaskGraph& g, const net::Topology& topo,
                   const net::HeterogeneousCostModel& costs,
                   bool insertion_slots)
    : costs_(&costs),
      insertion_slots_(insertion_slots),
      work_(g, topo),
      timelines_(static_cast<std::size_t>(topo.num_processors() +
                                          topo.num_links())) {}

Time Replayer::book(std::size_t resource, Time ready, Time duration) {
  std::vector<Interval>& busy = timelines_[resource];
  // Every interval finishes by r0 (the last finishes last: the slot
  // order): the slot search would answer r0, and the insert would land at
  // the end. Under the append rule, max(ready, back().finish) is r0 as
  // well.
  const Time r0 = std::max(ready, Time{0});
  if (busy.empty() || busy.back().finish <= r0) {
    busy.push_back(Interval{r0, r0 + duration});
    return r0;
  }
  // The slot rule of task_start/book_route, over the replay's own lists.
  const Time start = insertion_slots_ ? earliest_fit(busy, ready, duration)
                                      : busy.back().finish;
  // Inserted where place_task/append_hop would put it.
  insert_interval(busy, Interval{start, start + duration});
  return start;
}

void Replayer::sort_items() {
  constexpr std::size_t kDigits = 8;
  constexpr std::size_t kBuckets = 256;
  const std::size_t total = key_.size();
  order_.resize(total);
  sort_tmp_.resize(total);
  std::iota(order_.begin(), order_.end(), 0);
  if (total == 0) return;
  std::array<std::array<std::uint32_t, kBuckets>, kDigits> count{};
  for (const std::uint64_t k : key_) {
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++count[d][(k >> (8 * d)) & 0xffu];
    }
  }
  for (std::size_t d = 0; d < kDigits; ++d) {
    const std::size_t shift = 8 * d;
    auto& c = count[d];
    if (c[(key_[0] >> shift) & 0xffu] == total) continue;  // constant digit
    std::uint32_t sum = 0;
    for (std::uint32_t& bucket : c) sum += std::exchange(bucket, sum);
    for (const int item : order_) {
      const auto digit =
          (key_[static_cast<std::size_t>(item)] >> shift) & 0xffu;
      sort_tmp_[c[digit]++] = item;
    }
    order_.swap(sort_tmp_);
  }
}

Time Replayer::measure(const Schedule& s) {
  const auto& g = s.task_graph();
  BSA_REQUIRE(&g == &work_.task_graph() && &s.topology() == &work_.topology(),
              "replay of a schedule over another graph or topology");
  BSA_REQUIRE(s.all_placed(), "replay requires a complete placement");
  const auto& costs = *costs_;

  // Items in tie order — tasks by id, then hops by (edge, hop) — each
  // keyed by its previous start. `prio + 0.0` makes -0.0 equal to +0.0,
  // as the double comparison has it; flipping the sign bit of a
  // non-negative value and every bit of a negative one keeps the order.
  const auto key_of = [](Time prio) {
    const auto bits = std::bit_cast<std::uint64_t>(prio + 0.0);
    return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
  };
  const auto n = static_cast<std::size_t>(g.num_tasks());
  proc_.resize(n);
  key_.clear();
  waits_.clear();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    proc_[static_cast<std::size_t>(t)] = s.proc_of(t);
    key_.push_back(key_of(s.start_of(t)));
    waits_.push_back(g.in_degree(t));
  }
  route_off_.clear();
  route_link_.clear();
  hop_edge_.clear();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    route_off_.push_back(static_cast<int>(route_link_.size()));
    for (const Hop& h : s.route_of(e)) {
      route_link_.push_back(h.link);
      hop_edge_.push_back(e);
      key_.push_back(key_of(h.start));
      waits_.push_back(1);
    }
  }
  route_off_.push_back(static_cast<int>(route_link_.size()));
  const auto hops_of = [&](EdgeId e) {
    return route_off_[static_cast<std::size_t>(e) + 1] -
           route_off_[static_cast<std::size_t>(e)];
  };
  // The item of hop k of message e.
  const auto hop_item = [&](EdgeId e, int k) {
    return static_cast<int>(n) + route_off_[static_cast<std::size_t>(e)] + k;
  };
  sort_items();
  const std::size_t total = order_.size();
  pos_.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    pos_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
  }

  for (std::vector<Interval>& busy : timelines_) busy.clear();
  edge_ready_.resize(static_cast<std::size_t>(g.num_edges()));
  log_.clear();
  measured_ = true;
  behind_.clear();

  // The scan: order_[scan] is the next array item not yet reached. An
  // item that becomes ready behind it joins behind_, whose positions all
  // precede the scan's; so behind_'s top, else the scan's next ready
  // item, is the smallest ready item.
  std::size_t scan = 0;
  const auto done_with = [&](int item) {
    const auto i = static_cast<std::size_t>(item);
    if (--waits_[i] == 0 && static_cast<std::size_t>(pos_[i]) < scan) {
      behind_.push_back(pos_[i]);
      std::push_heap(behind_.begin(), behind_.end(), std::greater<>{});
    }
  };
  // Fires once the message's arrival time at its destination processor
  // is determined; enables the destination task.
  const auto arrival_known = [&](EdgeId e) { done_with(g.edge_dst(e)); };

  const auto num_procs =
      static_cast<std::size_t>(s.topology().num_processors());
  Time makespan = 0;
  for (;;) {
    int item = 0;
    if (!behind_.empty()) {
      std::pop_heap(behind_.begin(), behind_.end(), std::greater<>{});
      item = order_[static_cast<std::size_t>(behind_.back())];
      behind_.pop_back();
    } else {
      while (scan < total &&
             waits_[static_cast<std::size_t>(order_[scan])] != 0) {
        ++scan;
      }
      if (scan == total) break;
      item = order_[scan++];
    }
    if (item < static_cast<int>(n)) {
      const auto t = static_cast<TaskId>(item);
      Time drt = 0;
      // Every in-edge's arrival is known: its source is placed and its
      // route fully booked.
      for (const EdgeId e : g.in_edges(t)) {
        drt = std::max(drt, edge_ready_[static_cast<std::size_t>(e)]);
      }
      const ProcId p = proc_[static_cast<std::size_t>(t)];
      const Time dur = costs.exec_cost(t, p);
      const Time st = book(static_cast<std::size_t>(p), drt, dur);
      log_.push_back(Booked{t, -1, p, st, st + dur});
      makespan = std::max(makespan, st + dur);
      // Enable outgoing messages.
      for (const EdgeId e : g.out_edges(t)) {
        edge_ready_[static_cast<std::size_t>(e)] = st + dur;
        if (hops_of(e) == 0) {
          arrival_known(e);
        } else {
          done_with(hop_item(e, 0));
        }
      }
    } else {
      const auto h = static_cast<std::size_t>(item) - n;
      const EdgeId e = hop_edge_[h];
      const int k =
          static_cast<int>(h) - route_off_[static_cast<std::size_t>(e)];
      const LinkId l = route_link_[h];
      const Time ready = edge_ready_[static_cast<std::size_t>(e)];
      const Time dur = costs.comm_cost(e, l);
      const Time st = book(num_procs + static_cast<std::size_t>(l), ready, dur);
      BSA_ASSERT(ready <= st,
                 "route hops of message " << e << " not contiguous in time");
      log_.push_back(Booked{e, k, l, st, st + dur});
      edge_ready_[static_cast<std::size_t>(e)] = st + dur;
      if (k + 1 < hops_of(e)) {
        done_with(item + 1);
      } else {
        arrival_known(e);
      }
    }
  }
  BSA_ASSERT(log_.size() == total,
             "replay executed " << log_.size() << " of " << total
                                << " items");
  return makespan;
}

void Replayer::swap_into(Schedule& s) {
  BSA_REQUIRE(measured_, "swap_into without a measured replay");
  BSA_REQUIRE(&s.task_graph() == &work_.task_graph() &&
                  &s.topology() == &work_.topology(),
              "replay result kept in a schedule over another graph or "
              "topology");
  // The measured bookings, written in the order they were made: the same
  // mutations a schedule-building replay performs, so the same resource
  // orders, ties included.
  work_.clear();
  for (const Booked& b : log_) {
    if (b.hop < 0) {
      work_.place_task(b.id, b.resource, b.start, b.finish);
    } else {
      work_.append_hop(b.id, Hop{b.resource, b.start, b.finish});
    }
  }
  s.swap(work_);
  measured_ = false;
}

}  // namespace bsa::sched
