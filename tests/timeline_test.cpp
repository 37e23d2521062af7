#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/task_graph.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"
#include "slot_precondition.hpp"

namespace bsa::sched {

namespace {

TEST(EarliestFit, EmptyTimeline) {
  const std::vector<Interval> busy;
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 0, 10), 0);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 7, 10), 7);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, -5, 10), 0);  // clamped to zero
}

TEST(EarliestFit, FitsBeforeFirstBooking) {
  const std::vector<Interval> busy{{20, 30}};
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 0, 10), 0);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 5, 10), 5);
  // Does not fit before: pushed after the booking.
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 15, 10), 30);
}

TEST(EarliestFit, FitsInMiddleGap) {
  const std::vector<Interval> busy{{0, 10}, {25, 40}};
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 0, 15), 10);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 0, 16), 40);  // gap too small
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 12, 10), 12);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 18, 5), 18);  // fits [18,23)
}

TEST(EarliestFit, ExactFitUsesGapBoundary) {
  const std::vector<Interval> busy{{0, 10}, {20, 30}};
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 0, 10), 10);  // exactly fills gap
}

TEST(EarliestFit, ReadyInsideBooking) {
  const std::vector<Interval> busy{{0, 10}, {10, 20}};
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 5, 1), 20);
}

TEST(EarliestFit, ZeroDuration) {
  const std::vector<Interval> busy{{0, 10}};
  // Zero-length request fits at the boundary.
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 0, 0), 0);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 4, 0), 10);
  EXPECT_THROW((void)earliest_fit(busy, 0, -1), PreconditionError);
}

TEST(EarliestFit, AppendsAfterLast) {
  const std::vector<Interval> busy{{0, 10}, {10, 20}, {20, 35}};
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 0, 5), 35);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 50, 5), 50);
}

TEST(EarliestFit, ZeroLengthIntervalAfterAnOverrun) {
  // 0.1 + 0.2 rounds to just above 0.3, so [0.1, 0.1 + 0.2) overruns
  // 0.3. A request ready at 0.3 waits for that finish, and a zero-length
  // one lands on it, after the overrun: the finishes stay sorted.
  std::vector<Interval> busy{{0.1, 0.1 + 0.2}};
  ASSERT_GT(busy[0].finish, 0.3);
  EXPECT_EQ(earliest_fit(busy, 0.3, 0), 0.1 + 0.2);
  EXPECT_EQ(earliest_fit(busy, 0.3, 1), 0.1 + 0.2);
  EXPECT_EQ(earliest_fit(busy, 0.5, 0), 0.5);
  insert_interval(busy, {0.1 + 0.2, 0.1 + 0.2});
  EXPECT_TRUE(testing::meets_slot_precondition(busy));
  // A zero-length interval at 0.3 itself would sit inside the overrun.
  EXPECT_THROW(insert_interval(busy, {0.3, 0.3}), InvariantError);
}

TEST(EarliestFit, ZeroLengthRequestInsideAnInterval) {
  // A zero-length request ready just after 5 does not fit before
  // [5, 100), however short the distance: it lands on the finish, so no
  // interval nests inside another. At 5 itself it fits before.
  std::vector<Interval> busy{{5, 100}};
  const Time ready = 5 + 5e-10;
  EXPECT_EQ(earliest_fit(busy, ready, 0), 100);
  ASSERT_EQ(earliest_fit(busy, 5, 0), 5);
  insert_interval(busy, {5, 5});
  EXPECT_TRUE(testing::meets_slot_precondition(busy));
  EXPECT_EQ(earliest_fit(busy, 6, 0), 100);
  EXPECT_EQ(earliest_fit(busy, 6, 1), 100);
  EXPECT_EQ(earliest_fit(busy, 0, 5), 0);
  EXPECT_EQ(earliest_fit(busy, 0, 6), 100);
  EXPECT_THROW(insert_interval(busy, {ready, ready}), InvariantError);
}

TEST(InsertInterval, KeepsSortedOrder) {
  std::vector<Interval> busy{{0, 10}, {30, 40}};
  insert_interval(busy, {15, 20});
  ASSERT_EQ(busy.size(), 3u);
  EXPECT_DOUBLE_EQ(busy[1].start, 15);
  EXPECT_TRUE(testing::meets_slot_precondition(busy));
}

TEST(InsertInterval, OrdersEqualStartsByFinish) {
  // place_task's order: a longer interval goes after a zero-length one
  // at the same start, an equal one after its twin.
  std::vector<Interval> busy{{0, 5}, {5, 5}, {9, 10}};
  insert_interval(busy, {5, 8});
  insert_interval(busy, {5, 5});
  ASSERT_EQ(busy.size(), 5u);
  EXPECT_DOUBLE_EQ(busy[1].finish, 5);
  EXPECT_DOUBLE_EQ(busy[2].finish, 5);
  EXPECT_DOUBLE_EQ(busy[3].finish, 8);
  EXPECT_DOUBLE_EQ(earliest_fit(busy, 5, 1), 8);
}

TEST(InsertInterval, RejectsOverlap) {
  std::vector<Interval> busy{{0, 10}, {30, 40}};
  EXPECT_THROW(insert_interval(busy, {5, 12}), InvariantError);
  EXPECT_THROW(insert_interval(busy, {25, 31}), InvariantError);
  // A zero-length interval inside another overlaps it.
  EXPECT_THROW(insert_interval(busy, {5, 5}), InvariantError);
  // Touching is allowed; an overrun is not, however small.
  EXPECT_NO_THROW(insert_interval(busy, {10, 30}));
  EXPECT_NO_THROW(insert_interval(busy, {40, 41}));
  EXPECT_THROW(insert_interval(busy, {41 - 5e-10, 42}), InvariantError);
  EXPECT_NO_THROW(insert_interval(busy, {41, 42}));
  EXPECT_EQ(busy.size(), 5u);
}

TEST(SlotPrecondition, DetectsProblems) {
  using testing::meets_slot_precondition;
  using V = std::vector<Interval>;
  EXPECT_TRUE(meets_slot_precondition(V{}));
  EXPECT_TRUE(meets_slot_precondition(V{{0, 1}, {1, 2}}));
  EXPECT_TRUE(meets_slot_precondition(V{{0, 0}, {0, 5}, {5, 5}, {5, 6}}));
  EXPECT_TRUE(meets_slot_precondition(V{{0.1, 0.1 + 0.2}, {0.1 + 0.2, 1}}));
  // An overrun by one rounding step, and a zero-length interval nested
  // just after the start of another, both overlap.
  EXPECT_FALSE(meets_slot_precondition(V{{0.1, 0.1 + 0.2}, {0.3, 0.3}}));
  EXPECT_FALSE(meets_slot_precondition(V{{5, 100}, {5 + 5e-10, 5 + 5e-10}}));
  EXPECT_FALSE(meets_slot_precondition(V{{1, 2}, {0, 1}}));
  EXPECT_FALSE(meets_slot_precondition(V{{0, 5}, {4, 6}}));
  EXPECT_FALSE(meets_slot_precondition(V{{0, 5}, {0, 4}}));
  EXPECT_FALSE(meets_slot_precondition(V{{0, 5}, {2, 2}}));
  EXPECT_FALSE(meets_slot_precondition(V{{0, 1}, {3, 2}}));
}

// --- earliest_fit against the plain scan ------------------------------------

/// The scan earliest_fit must equal: candidate = max(ready, 0); stop at
/// the first interval the request fits before, else move past it.
Time plain_scan(const std::vector<Interval>& busy, Time ready, Time duration) {
  Time candidate = std::max(ready, Time{0});
  for (const Interval& iv : busy) {
    if (candidate + duration <= iv.start) break;
    candidate = std::max(candidate, iv.finish);
  }
  return candidate;
}

/// A candidate interval for a grown list: at the tail, inside an
/// interior gap, zero-length on a boundary (ties), a duplicate of an
/// existing interval, or one that fills a gap exactly or overruns it by
/// one rounding step. Some candidates break the slot order (overlap);
/// the test drops those.
Interval random_candidate(Rng& rng, const std::vector<Interval>& busy) {
  const auto pick = [&]() -> const Interval& {
    return busy[rng.index(busy.size())];
  };
  const Time tail = busy.empty() ? 0 : busy.back().finish;
  const bool fractional = rng.bernoulli(0.5);
  const auto length = [&](Time hi) {
    const auto whole = static_cast<std::size_t>(hi) + 1;
    return fractional ? rng.uniform_real(0.0, hi)
                      : static_cast<Time>(rng.index(whole));
  };
  switch (busy.empty() ? 0 : rng.index(6)) {
    case 0: {  // tail, touching or after a gap
      const Time start = tail + (rng.bernoulli(0.4) ? 0 : length(5));
      return {start, start + length(6)};
    }
    case 1: {  // inside the gap before a random interval
      const std::size_t j = rng.index(busy.size());
      const Time open = j == 0 ? 0 : busy[j - 1].finish;
      const Time end = busy[j].start;
      if (end <= open) return {open, open};
      const Time start = rng.uniform_real(open, end);
      return {start, rng.uniform_real(start, end)};
    }
    case 2: {  // zero-length on a boundary
      const Interval& iv = pick();
      const Time at = rng.bernoulli(0.5) ? iv.start : iv.finish;
      return {at, at};
    }
    case 3:  // an equal (start, finish) tie
      return pick();
    case 4: {  // fills the gap before an interval, or overruns it by an ulp
      const std::size_t j = rng.index(busy.size());
      const Time open = j == 0 ? 0 : busy[j - 1].finish;
      const Time end = rng.bernoulli(0.5)
                           ? busy[j].start
                           : std::nextafter(busy[j].start, kInfiniteTime);
      return {open, std::max(open, end)};
    }
    default: {  // anywhere: may overlap
      const Time start = rng.uniform_real(0.0, tail + 2);
      return {start, start + length(4)};
    }
  }
}

/// A ready time before, inside, on the boundary of, between or after the
/// intervals.
Time random_ready(Rng& rng, const std::vector<Interval>& busy) {
  const Time tail = busy.empty() ? 0 : busy.back().finish;
  if (busy.empty() || rng.bernoulli(0.2)) {
    return rng.uniform_real(-2.0, tail + 3);
  }
  const std::size_t j = rng.index(busy.size());
  switch (rng.index(4)) {
    case 0:  // inside interval j
      return rng.uniform_real(busy[j].start, busy[j].finish);
    case 1:  // on a boundary of interval j
      return rng.bernoulli(0.5) ? busy[j].start : busy[j].finish;
    case 2: {  // in the gap before interval j
      const Time open = j == 0 ? 0 : busy[j - 1].finish;
      return rng.uniform_real(std::min(open, busy[j].start), busy[j].start);
    }
    default:  // before the first interval or after the last
      return rng.bernoulli(0.5) ? -rng.uniform_real(0.0, 2.0)
                                : tail + rng.uniform_real(0.0, 3.0);
  }
}

/// A duration: anything, zero, or the capacity of the gap before a
/// random interval, give or take one rounding step.
Time random_duration(Rng& rng, const std::vector<Interval>& busy) {
  switch (busy.empty() ? 0 : rng.index(3)) {
    case 0:
      return rng.uniform_real(0.0, 6.0);
    case 1:
      return 0;
    default: {
      const std::size_t j = rng.index(busy.size());
      const Time open = j == 0 ? 0 : busy[j - 1].finish;
      const Time capacity = std::max(Time{0}, busy[j].start - open);
      switch (rng.index(3)) {
        case 0:
          return capacity;
        case 1:
          return std::nextafter(capacity, Time{0});
        default:
          return std::nextafter(capacity, kInfiniteTime);
      }
    }
  }
}

/// A request as schedulers make them: a ready time as random_ready's,
/// sometimes one rounding step off (sums rounded differently), and a
/// duration as random_duration's or tiny (near-zero costs, which a large
/// start may absorb).
std::pair<Time, Time> random_request(Rng& rng,
                                     const std::vector<Interval>& busy) {
  Time ready = random_ready(rng, busy);
  if (rng.bernoulli(0.3)) {
    ready = std::nextafter(ready, rng.bernoulli(0.5) ? -kInfiniteTime
                                                     : kInfiniteTime);
  }
  const Time dur = rng.bernoulli(0.25) ? rng.uniform_real(0.0, 1e-9)
                                       : random_duration(rng, busy);
  return {ready, dur};
}

/// Property: earliest_fit equals the plain scan on every list in the
/// slot order — over a plain Interval list and, read in place, over a
/// Schedule's processor order holding the same intervals (place_task
/// keeps the list's order). Lists grow left to right, from the random
/// candidates above that keep the slot order, or from the scan's own
/// answers to random requests (as schedulers build them; each answer
/// must keep the slot order), and lose a random interval now and then.
TEST(EarliestFit, MatchesThePlainScanOnRandomTimelines) {
  constexpr int kSteps = 150;
  graph::TaskGraphBuilder b;
  for (int i = 0; i < kSteps; ++i) (void)b.add_task(1);
  const graph::TaskGraph g = b.build();
  const net::Topology topo = net::Topology::clique(2);
  Rng rng(2026);
  int queries = 0;
  int refused = 0;     // candidates dropped for breaking the slot order
  int decreasing = 0;  // lists whose finishes decrease somewhere
  int zero_ties = 0;   // lists with a zero-length interval on a boundary
  for (int round = 0; round < 240; ++round) {
    std::vector<Interval> busy;
    std::vector<TaskId> ids;  // busy[i] is task ids[i] of `s`
    Schedule s(g, topo);
    const int mode = round % 3;  // 0 sequential, 1 candidates, 2 answers
    const bool fractional = round % 2 == 0;
    Time cursor = 0;
    for (TaskId next = 0; next < kSteps; ++next) {
      if (!busy.empty() && rng.bernoulli(0.1)) {
        const std::size_t j = rng.index(busy.size());
        s.unplace_task(ids[j]);
        busy.erase(busy.begin() + static_cast<std::ptrdiff_t>(j));
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(j));
      }
      Interval iv;
      if (mode == 0) {
        // Left to right; gaps and lengths of zero (touching intervals,
        // zero-length intervals) included.
        const Time gap = fractional ? rng.uniform_real(0.0, 7.0)
                                    : static_cast<Time>(rng.index(7));
        const Time len = fractional ? rng.uniform_real(0.0, 9.0)
                                    : static_cast<Time>(rng.index(9));
        iv = {cursor + gap, cursor + gap + len};
        cursor = iv.finish;
      } else if (mode == 1) {
        iv = random_candidate(rng, busy);
      } else {
        const auto [ready, dur] = random_request(rng, busy);
        const Time start = plain_scan(busy, ready, dur);
        iv = {start, start + dur};
      }
      const auto pos =
          std::upper_bound(busy.begin(), busy.end(), iv, interval_less) -
          busy.begin();
      busy.insert(busy.begin() + pos, iv);
      if (!testing::meets_slot_precondition(busy)) {
        ASSERT_EQ(mode, 1) << "round=" << round << " next=" << next;
        busy.erase(busy.begin() + pos);
        ++refused;
        continue;
      }
      ids.insert(ids.begin() + pos, next);
      s.place_task(next, 0, iv.start, iv.finish);
      ASSERT_EQ(s.tasks_on(0), ids) << "round=" << round;
      const auto adjacent = [&](auto pred) {
        return std::adjacent_find(busy.begin(), busy.end(), pred) !=
               busy.end();
      };
      decreasing += adjacent([](const Interval& x, const Interval& y) {
        return y.finish < x.finish;
      });
      zero_ties += adjacent([](const Interval& x, const Interval& y) {
        return x.finish == y.start &&
               (x.start == x.finish || y.start == y.finish);
      });
      for (int q = 0; q < 6; ++q) {
        const auto [ready, dur] = random_request(rng, busy);
        const Time expected = plain_scan(busy, ready, dur);
        ASSERT_EQ(earliest_fit(busy, ready, dur), expected)
            << "round=" << round << " next=" << next << " ready=" << ready
            << " dur=" << dur;
        ASSERT_EQ(s.earliest_task_slot(0, ready, dur), expected)
            << "round=" << round << " next=" << next;
        ++queries;
      }
    }
  }
  EXPECT_GT(queries, 100000);
  EXPECT_GT(refused, 1000);
  // The slot order sorts the finishes too.
  EXPECT_EQ(decreasing, 0);
  EXPECT_GT(zero_ties, 1000);
}

// --- Schedule-level insertion edge cases ------------------------------------
//
// HEFT-style placement exercises earliest_task_slot in corners BSA's
// serial-injection order never reaches: slots *before* the first booking
// on a processor (a high-rank task arriving after a low-rank one was
// committed), zero-length tasks, and equal-time ties in the processor
// execution order.

/// Four independent tasks — placement machinery only.
graph::TaskGraph four_tasks() {
  graph::TaskGraphBuilder b;
  for (int i = 0; i < 4; ++i) (void)b.add_task(1);
  return b.build();
}

TEST(ScheduleSlots, InsertsBeforeFirstBooking) {
  const graph::TaskGraph g = four_tasks();
  const net::Topology topo = net::Topology::clique(2);
  Schedule s(g, topo);
  s.place_task(0, 0, 20, 30);
  // The idle prefix [0, 20) is a real slot, not dead time.
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 0, 10), 0);
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 5, 10), 5);
  // Too late to fit before: pushed past the booking.
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 15, 10), 30);
  // Committing into the prefix re-sorts the execution order by time.
  s.place_task(1, 0, 0, 10);
  EXPECT_EQ(s.tasks_on(0), (std::vector<TaskId>{1, 0}));
}

TEST(ScheduleSlots, ZeroLengthTasksFitAtBoundaries) {
  const graph::TaskGraph g = four_tasks();
  const net::Topology topo = net::Topology::clique(2);
  Schedule s(g, topo);
  s.place_task(0, 0, 0, 10);
  s.place_task(1, 0, 10, 20);
  // A zero-length request inside a booking lands on the next boundary,
  // even a zero-width one between two touching bookings.
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 5, 0), 10);
  // At a boundary it fits exactly there; past the last booking it sits
  // at the ready time.
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 0, 0), 0);
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 25, 0), 25);
  // And committing one keeps the timeline well-formed for later queries.
  s.place_task(2, 0, 10, 10);
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 0, 5), 20);
}

TEST(ScheduleSlots, EqualTimeTieOrderingIsDeterministic) {
  const graph::TaskGraph g = four_tasks();
  const net::Topology topo = net::Topology::clique(2);
  Schedule s(g, topo);
  s.place_task(0, 1, 10, 20);
  // A zero-length task at the same start sorts before the longer one
  // (order is by (start, finish)), independent of insertion order.
  s.place_task(1, 1, 10, 10);
  EXPECT_EQ(s.tasks_on(1), (std::vector<TaskId>{1, 0}));
  // Equal (start, finish): the earlier insertion keeps its position.
  s.place_task(2, 1, 10, 10);
  EXPECT_EQ(s.tasks_on(1), (std::vector<TaskId>{1, 2, 0}));
}

}  // namespace
}  // namespace bsa::sched
