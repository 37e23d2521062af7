#include "sched/schedule.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "sched/timeline.hpp"

namespace bsa::sched {
namespace {

/// The interval of a link booking.
constexpr auto interval_of = [](const LinkBooking& b) {
  return Interval{b.start, b.finish};
};

/// Position of hop `hop_index` of message `e`, booked at `iv`, in a list
/// sorted by (start, finish): a binary search for its times, then a scan
/// of the bookings with equal times. `bookings.end()` when absent.
std::vector<LinkBooking>::iterator find_booking(
    std::vector<LinkBooking>& bookings, EdgeId e, int hop_index,
    const Interval& iv) {
  auto it = std::lower_bound(bookings.begin(), bookings.end(), iv,
                             [](const LinkBooking& b, const Interval& x) {
                               return interval_less(interval_of(b), x);
                             });
  for (; it != bookings.end() && !interval_less(iv, interval_of(*it)); ++it) {
    if (it->edge == e && it->hop_index == hop_index) return it;
  }
  return bookings.end();
}

}  // namespace

Schedule::Schedule(const graph::TaskGraph& g, const net::Topology& topo)
    : graph_(&g), topo_(&topo) {
  placements_.resize(static_cast<std::size_t>(g.num_tasks()));
  proc_tasks_.resize(static_cast<std::size_t>(topo.num_processors()));
  routes_.resize(static_cast<std::size_t>(g.num_edges()));
  link_bookings_.resize(static_cast<std::size_t>(topo.num_links()));
}

Schedule::Schedule(const Schedule& other)
    : graph_(other.graph_),
      topo_(other.topo_),
      placements_(other.placements_),
      proc_tasks_(other.proc_tasks_),
      routes_(other.routes_),
      link_bookings_(other.link_bookings_),
      num_placed_(other.num_placed_) {}  // the copy's txn_ stays null

Schedule& Schedule::operator=(const Schedule& other) {
  if (this == &other) return *this;
  BSA_REQUIRE(txn_ == nullptr,
              "copy-assignment into a schedule with an open transaction");
  graph_ = other.graph_;
  topo_ = other.topo_;
  placements_ = other.placements_;
  proc_tasks_ = other.proc_tasks_;
  routes_ = other.routes_;
  link_bookings_ = other.link_bookings_;
  num_placed_ = other.num_placed_;
  return *this;
}

void Schedule::clear() {
  BSA_REQUIRE(txn_ == nullptr, "clear of a schedule with an open transaction");
  std::fill(placements_.begin(), placements_.end(), Placement{});
  for (auto& order : proc_tasks_) order.clear();
  for (auto& route : routes_) route.clear();
  for (auto& bookings : link_bookings_) bookings.clear();
  num_placed_ = 0;
}

void Schedule::swap(Schedule& other) {
  BSA_REQUIRE(txn_ == nullptr && other.txn_ == nullptr,
              "swap of a schedule with an open transaction");
  using std::swap;
  swap(graph_, other.graph_);
  swap(topo_, other.topo_);
  swap(placements_, other.placements_);
  swap(proc_tasks_, other.proc_tasks_);
  swap(routes_, other.routes_);
  swap(link_bookings_, other.link_bookings_);
  swap(num_placed_, other.num_placed_);
}

// --- transactions -----------------------------------------------------------

void Schedule::begin_transaction(Transaction& txn) {
  BSA_REQUIRE(txn_ == nullptr, "a transaction is already active");
  txn.reset();
  txn_ = &txn;
}

void Schedule::commit_transaction() {
  BSA_REQUIRE(txn_ != nullptr, "commit without an active transaction");
  txn_->reset();
  txn_ = nullptr;
}

void Schedule::rollback_transaction() {
  BSA_REQUIRE(txn_ != nullptr, "rollback without an active transaction");
  Transaction& txn = *txn_;
  txn_ = nullptr;  // the undo writes below must not journal themselves
  // Replay the inverses newest-first: each undo sees exactly the state
  // that existed right after its forward op, so the recorded positions
  // (order slots, booking slots) are valid verbatim.
  for (auto it = txn.records_.rbegin(); it != txn.records_.rend(); ++it) {
    const Transaction::Record& r = *it;
    switch (r.op) {
      case Transaction::Op::kPlaceTask: {
        auto& pl = placements_[static_cast<std::size_t>(r.a)];
        auto& order = proc_tasks_[static_cast<std::size_t>(pl.proc)];
        BSA_ASSERT(order[static_cast<std::size_t>(r.idx0)] == r.a,
                   "transaction undo: order slot mismatch");
        order.erase(order.begin() + r.idx0);
        pl = Placement{};
        --num_placed_;
        break;
      }
      case Transaction::Op::kUnplaceTask: {
        placements_[static_cast<std::size_t>(r.a)] =
            Placement{r.b, r.t0, r.t1};
        auto& order = proc_tasks_[static_cast<std::size_t>(r.b)];
        order.insert(order.begin() + r.idx0, r.a);
        ++num_placed_;
        break;
      }
      case Transaction::Op::kSetTaskTimes: {
        auto& pl = placements_[static_cast<std::size_t>(r.a)];
        pl.start = r.t0;
        pl.finish = r.t1;
        break;
      }
      case Transaction::Op::kAppendHop: {
        auto& route = routes_[static_cast<std::size_t>(r.a)];
        const Hop hop = route.back();
        route.pop_back();
        auto& bookings = link_bookings_[static_cast<std::size_t>(hop.link)];
        BSA_ASSERT(bookings[static_cast<std::size_t>(r.idx1)].edge == r.a,
                   "transaction undo: booking slot mismatch");
        bookings.erase(bookings.begin() + r.idx1);
        break;
      }
      case Transaction::Op::kEraseHop: {
        auto& route = routes_[static_cast<std::size_t>(r.a)];
        BSA_ASSERT(static_cast<std::int32_t>(route.size()) == r.idx0,
                   "transaction undo: hop index mismatch");
        route.push_back(Hop{r.b, r.t0, r.t1});
        auto& bookings = link_bookings_[static_cast<std::size_t>(r.b)];
        bookings.insert(bookings.begin() + r.idx1,
                        LinkBooking{r.a, r.idx0, r.t0, r.t1});
        break;
      }
      case Transaction::Op::kSetHopTimes: {
        auto& hop = routes_[static_cast<std::size_t>(r.a)]
                           [static_cast<std::size_t>(r.idx0)];
        hop.start = r.t0;
        hop.finish = r.t1;
        auto& bk = link_bookings_[static_cast<std::size_t>(hop.link)]
                                 [static_cast<std::size_t>(r.idx1)];
        bk.start = r.t0;
        bk.finish = r.t1;
        break;
      }
    }
  }
  txn.reset();
}

void Schedule::check_task(TaskId t) const {
  BSA_REQUIRE(t >= 0 && t < graph_->num_tasks(),
              "task id " << t << " out of range");
}

void Schedule::check_edge(EdgeId e) const {
  BSA_REQUIRE(e >= 0 && e < graph_->num_edges(),
              "edge id " << e << " out of range");
}

void Schedule::check_link(LinkId l) const {
  BSA_REQUIRE(l >= 0 && l < topo_->num_links(),
              "link id " << l << " out of range");
}

void Schedule::check_proc(ProcId p) const {
  BSA_REQUIRE(p >= 0 && p < topo_->num_processors(),
              "processor id " << p << " out of range");
}

bool Schedule::is_placed(TaskId t) const {
  check_task(t);
  return placements_[static_cast<std::size_t>(t)].proc != kInvalidProc;
}

ProcId Schedule::proc_of(TaskId t) const {
  check_task(t);
  const auto& pl = placements_[static_cast<std::size_t>(t)];
  BSA_REQUIRE(pl.proc != kInvalidProc, "task " << t << " is not placed");
  return pl.proc;
}

Time Schedule::start_of(TaskId t) const {
  check_task(t);
  const auto& pl = placements_[static_cast<std::size_t>(t)];
  BSA_REQUIRE(pl.proc != kInvalidProc, "task " << t << " is not placed");
  return pl.start;
}

Time Schedule::finish_of(TaskId t) const {
  check_task(t);
  const auto& pl = placements_[static_cast<std::size_t>(t)];
  BSA_REQUIRE(pl.proc != kInvalidProc, "task " << t << " is not placed");
  return pl.finish;
}

const std::vector<TaskId>& Schedule::tasks_on(ProcId p) const {
  check_proc(p);
  return proc_tasks_[static_cast<std::size_t>(p)];
}

Time Schedule::makespan() const {
  Time mk = 0;
  for (const auto& pl : placements_) {
    if (pl.proc != kInvalidProc) mk = std::max(mk, pl.finish);
  }
  return mk;
}

const std::vector<Hop>& Schedule::route_of(EdgeId e) const {
  check_edge(e);
  return routes_[static_cast<std::size_t>(e)];
}

const std::vector<LinkBooking>& Schedule::bookings_on(LinkId l) const {
  check_link(l);
  return link_bookings_[static_cast<std::size_t>(l)];
}

Time Schedule::arrival_of(EdgeId e) const {
  check_edge(e);
  const auto& route = routes_[static_cast<std::size_t>(e)];
  if (!route.empty()) return route.back().finish;
  return finish_of(graph_->edge_src(e));
}

Time Schedule::earliest_task_slot(ProcId p, Time ready, Time duration) const {
  check_proc(p);
  const auto interval_of = [this](TaskId t) {
    const Placement& pl = placements_[static_cast<std::size_t>(t)];
    return Interval{pl.start, pl.finish};
  };
  return earliest_fit(proc_tasks_[static_cast<std::size_t>(p)], ready,
                      duration, interval_of);
}

Time Schedule::earliest_link_slot(LinkId l, Time ready, Time duration) const {
  check_link(l);
  return earliest_fit(link_bookings_[static_cast<std::size_t>(l)], ready,
                      duration, interval_of);
}

void Schedule::place_task(TaskId t, ProcId p, Time start, Time finish) {
  check_task(t);
  check_proc(p);
  auto& pl = placements_[static_cast<std::size_t>(t)];
  BSA_REQUIRE(pl.proc == kInvalidProc, "task " << t << " already placed");
  BSA_REQUIRE(start <= finish, "task " << t << " start " << start
                                     << " after finish " << finish);
  pl = Placement{p, start, finish};
  // After every task that is not greater in (start, finish) order.
  auto& order = proc_tasks_[static_cast<std::size_t>(p)];
  const auto pos = std::upper_bound(
      order.begin(), order.end(), Interval{start, finish},
      [this](const Interval& x, TaskId u) {
        const auto& o = placements_[static_cast<std::size_t>(u)];
        return interval_less(x, Interval{o.start, o.finish});
      });
  if (txn_ != nullptr) {
    txn_->records_.push_back(
        {Transaction::Op::kPlaceTask, t, p,
         static_cast<std::int32_t>(pos - order.begin()), 0, 0, 0});
  }
  order.insert(pos, t);
  ++num_placed_;
}

void Schedule::unplace_task(TaskId t) {
  check_task(t);
  auto& pl = placements_[static_cast<std::size_t>(t)];
  BSA_REQUIRE(pl.proc != kInvalidProc, "task " << t << " is not placed");
  auto& order = proc_tasks_[static_cast<std::size_t>(pl.proc)];
  const auto pos = std::find(order.begin(), order.end(), t);
  BSA_ASSERT(pos != order.end(), "task missing from processor order");
  if (txn_ != nullptr) {
    // The exact order position is recorded: re-inserting by start-time
    // comparison could land elsewhere among equal-time ties.
    txn_->records_.push_back(
        {Transaction::Op::kUnplaceTask, t, pl.proc,
         static_cast<std::int32_t>(pos - order.begin()), 0, pl.start,
         pl.finish});
  }
  order.erase(pos);
  pl = Placement{};
  --num_placed_;
}

void Schedule::set_task_times(TaskId t, Time start, Time finish) {
  check_task(t);
  auto& pl = placements_[static_cast<std::size_t>(t)];
  BSA_REQUIRE(pl.proc != kInvalidProc, "task " << t << " is not placed");
  BSA_REQUIRE(start <= finish, "task " << t << " start " << start
                                     << " after finish " << finish);
  if (txn_ != nullptr) {
    txn_->records_.push_back({Transaction::Op::kSetTaskTimes, t, pl.proc, 0, 0,
                              pl.start, pl.finish});
  }
  pl.start = start;
  pl.finish = finish;
}

void Schedule::set_route(EdgeId e, std::vector<Hop> hops) {
  check_edge(e);
  BSA_REQUIRE(routes_[static_cast<std::size_t>(e)].empty(),
              "message " << e << " already routed");
  const std::size_t journal_mark =
      txn_ != nullptr ? txn_->records_.size() : 0;
  std::size_t added = 0;
  try {
    for (const Hop& h : hops) {
      append_hop(e, h);
      ++added;
    }
  } catch (...) {
    // Strong exception safety: release the hops already booked.
    auto& route = routes_[static_cast<std::size_t>(e)];
    while (added-- > 0) {
      const Hop h = route.back();
      auto& bookings = link_bookings_[static_cast<std::size_t>(h.link)];
      const int hop_index = static_cast<int>(route.size()) - 1;
      const auto pos = std::find_if(
          bookings.begin(), bookings.end(), [&](const LinkBooking& b) {
            return b.edge == e && b.hop_index == hop_index;
          });
      BSA_ASSERT(pos != bookings.end(), "rollback lost a booking");
      bookings.erase(pos);
      route.pop_back();
    }
    // The unwound hops' journal entries must go too: the mutations they
    // invert no longer exist.
    if (txn_ != nullptr) txn_->records_.resize(journal_mark);
    throw;
  }
}

void Schedule::append_hop(EdgeId e, const Hop& hop) {
  check_edge(e);
  check_link(hop.link);
  BSA_REQUIRE(hop.start <= hop.finish, "hop with negative duration");
  auto& route = routes_[static_cast<std::size_t>(e)];
  if (!route.empty()) {
    BSA_REQUIRE(route.back().finish <= hop.start,
                "route hops of message " << e << " not contiguous in time");
  }
  // Validate the booking before mutating anything (strong exception
  // safety: a rejected hop leaves the schedule untouched).
  auto& bookings = link_bookings_[static_cast<std::size_t>(hop.link)];
  const LinkBooking nb{e, static_cast<int>(route.size()), hop.start,
                       hop.finish};
  const auto pos = std::upper_bound(
      bookings.begin(), bookings.end(), interval_of(nb),
      [](const Interval& x, const LinkBooking& b) {
        return interval_less(x, interval_of(b));
      });
  // Exclusivity: reject overlap with either neighbour.
  if (pos != bookings.end()) {
    BSA_ASSERT(nb.finish <= pos->start,
               "hop overlap on link " << hop.link << " (successor)");
  }
  if (pos != bookings.begin()) {
    BSA_ASSERT((pos - 1)->finish <= nb.start,
               "hop overlap on link " << hop.link << " (predecessor)");
  }
  if (txn_ != nullptr) {
    txn_->records_.push_back(
        {Transaction::Op::kAppendHop, e, hop.link, 0,
         static_cast<std::int32_t>(pos - bookings.begin()), 0, 0});
  }
  route.push_back(hop);
  bookings.insert(pos, nb);
}

void Schedule::clear_route(EdgeId e) {
  check_edge(e);
  auto& route = routes_[static_cast<std::size_t>(e)];
  // Hops are released back-to-front so the journal's reverse replay
  // re-installs them front-to-back with valid hop indices.
  for (std::size_t i = route.size(); i-- > 0;) {
    const Hop hop = route[i];
    auto& bookings = link_bookings_[static_cast<std::size_t>(hop.link)];
    const auto pos = find_booking(bookings, e, static_cast<int>(i),
                                  Interval{hop.start, hop.finish});
    BSA_ASSERT(pos != bookings.end(), "hop booking missing for message " << e);
    if (txn_ != nullptr) {
      txn_->records_.push_back(
          {Transaction::Op::kEraseHop, e, hop.link,
           static_cast<std::int32_t>(i),
           static_cast<std::int32_t>(pos - bookings.begin()), hop.start,
           hop.finish});
    }
    bookings.erase(pos);
    route.pop_back();
  }
}

void Schedule::set_hop_times(EdgeId e, int hop_index, Time start, Time finish) {
  check_edge(e);
  const auto& route = routes_[static_cast<std::size_t>(e)];
  BSA_REQUIRE(hop_index >= 0 &&
                  static_cast<std::size_t>(hop_index) < route.size(),
              "hop index " << hop_index << " out of range for message " << e);
  const Hop& hop = route[static_cast<std::size_t>(hop_index)];
  auto& bookings = link_bookings_[static_cast<std::size_t>(hop.link)];
  const auto pos =
      find_booking(bookings, e, hop_index, Interval{hop.start, hop.finish});
  BSA_ASSERT(pos != bookings.end(), "hop booking missing for message " << e);
  set_hop_times(e, hop_index, start, finish,
                static_cast<std::size_t>(pos - bookings.begin()));
}

void Schedule::set_hop_times(EdgeId e, int hop_index, Time start, Time finish,
                             std::size_t booking_pos) {
  check_edge(e);
  auto& route = routes_[static_cast<std::size_t>(e)];
  BSA_REQUIRE(hop_index >= 0 &&
                  static_cast<std::size_t>(hop_index) < route.size(),
              "hop index " << hop_index << " out of range for message " << e);
  BSA_REQUIRE(start <= finish, "hop with negative duration");
  auto& hop = route[static_cast<std::size_t>(hop_index)];
  auto& bookings = link_bookings_[static_cast<std::size_t>(hop.link)];
  BSA_REQUIRE(booking_pos < bookings.size() &&
                  bookings[booking_pos].edge == e &&
                  bookings[booking_pos].hop_index == hop_index,
              "booking position " << booking_pos << " does not hold hop "
                                  << hop_index << " of message " << e);
  LinkBooking& booking = bookings[booking_pos];
  if (txn_ != nullptr) {
    txn_->records_.push_back(
        {Transaction::Op::kSetHopTimes, e, hop.link, hop_index,
         static_cast<std::int32_t>(booking_pos), hop.start, hop.finish});
  }
  hop.start = start;
  hop.finish = finish;
  booking.start = start;
  booking.finish = finish;
}

}  // namespace bsa::sched
