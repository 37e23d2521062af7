#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/task_graph.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"

namespace bsa::sched {

/// Reads SlotIndex's arrays (declared friend in timeline.hpp).
struct SlotIndexTestPeer {
  /// Same gap records, tail, tree and built flag.
  static bool same_arrays(const SlotIndex& a, const SlotIndex& b) {
    return a.built_ == b.built_ && a.n_ == b.n_ &&
           a.tail_open_ == b.tail_open_ && a.gap_end_ == b.gap_end_ &&
           a.gap_open_ == b.gap_open_ && a.seg_ == b.seg_;
  }
};

namespace {

TEST(EarliestFit, EmptyTimeline) {
  EXPECT_DOUBLE_EQ(earliest_fit({}, 0, 10), 0);
  EXPECT_DOUBLE_EQ(earliest_fit({}, 7, 10), 7);
  EXPECT_DOUBLE_EQ(earliest_fit({}, -5, 10), 0);  // clamped to zero
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

TEST(InsertInterval, KeepsSortedOrder) {
  std::vector<Interval> busy{{0, 10}, {30, 40}};
  insert_interval(busy, {15, 20});
  ASSERT_EQ(busy.size(), 3u);
  EXPECT_DOUBLE_EQ(busy[1].start, 15);
  EXPECT_TRUE(is_well_formed(busy));
}

TEST(InsertInterval, RejectsOverlap) {
  std::vector<Interval> busy{{0, 10}, {30, 40}};
  EXPECT_THROW(insert_interval(busy, {5, 12}), InvariantError);
  EXPECT_THROW(insert_interval(busy, {25, 31}), InvariantError);
  // Touching is allowed.
  EXPECT_NO_THROW(insert_interval(busy, {10, 30}));
}

TEST(IntervalsOverlap, Cases) {
  EXPECT_TRUE(intervals_overlap({0, 10}, {5, 15}));
  EXPECT_TRUE(intervals_overlap({5, 15}, {0, 10}));
  EXPECT_FALSE(intervals_overlap({0, 10}, {10, 20}));  // touching
  EXPECT_FALSE(intervals_overlap({0, 10}, {20, 30}));
  EXPECT_FALSE(intervals_overlap({5, 5}, {0, 10}));  // empty interval
}

TEST(IsWellFormed, DetectsProblems) {
  EXPECT_TRUE(is_well_formed({}));
  EXPECT_TRUE(is_well_formed(std::vector<Interval>{{0, 1}, {1, 2}}));
  EXPECT_FALSE(is_well_formed(std::vector<Interval>{{1, 2}, {0, 1}}));
  EXPECT_FALSE(is_well_formed(std::vector<Interval>{{0, 5}, {4, 6}}));
  EXPECT_FALSE(is_well_formed(std::vector<Interval>{{3, 2}}));
}

// --- SlotIndex ---------------------------------------------------------------

TEST(SlotIndex, EmptyAndBasics) {
  SlotIndex idx;
  idx.build({});
  EXPECT_TRUE(idx.built());
  EXPECT_DOUBLE_EQ(idx.query(0, 10), 0);
  EXPECT_DOUBLE_EQ(idx.query(7, 10), 7);
  EXPECT_DOUBLE_EQ(idx.query(-5, 10), 0);  // clamped like earliest_fit

  const std::vector<Interval> busy{{5, 10}, {12, 20}, {30, 35}};
  idx.build(busy);
  for (const Time ready : {0.0, 3.0, 5.0, 11.0, 20.0, 36.0}) {
    for (const Time dur : {0.0, 1.0, 2.0, 5.0, 10.0, 100.0}) {
      EXPECT_DOUBLE_EQ(idx.query(ready, dur), earliest_fit(busy, ready, dur))
          << "ready=" << ready << " dur=" << dur;
    }
  }
  idx.reset();
  EXPECT_FALSE(idx.built());
}

TEST(SlotIndex, TouchingIntervalsAndZeroDurations) {
  const std::vector<Interval> busy{{0, 4}, {4, 8}, {8, 8}, {10, 12}};
  SlotIndex idx;
  idx.build(busy);
  for (const Time ready : {0.0, 4.0, 8.0, 9.0, 12.5}) {
    for (const Time dur : {0.0, 1.0, 2.0, 3.0}) {
      EXPECT_DOUBLE_EQ(idx.query(ready, dur), earliest_fit(busy, ready, dur))
          << "ready=" << ready << " dur=" << dur;
    }
  }
}

/// Property: SlotIndex answers exactly match the linear scan on random
/// timelines (integral and fractional), across a sweep of queries.
TEST(SlotIndex, MatchesLinearScanOnRandomTimelines) {
  Rng rng(2026);
  for (int round = 0; round < 200; ++round) {
    const bool fractional = round % 3 == 0;
    std::vector<Interval> busy;
    Time cursor = 0;
    const int intervals = static_cast<int>(rng.index(20));
    for (int i = 0; i < intervals; ++i) {
      // Gaps of zero are allowed (touching intervals).
      const Time gap = fractional ? rng.uniform_real(0.0, 7.0)
                                  : static_cast<Time>(rng.index(7));
      const Time len = fractional ? rng.uniform_real(0.0, 9.0)
                                  : static_cast<Time>(rng.index(9));
      cursor += gap;
      busy.push_back(Interval{cursor, cursor + len});
      cursor += len;
    }
    SlotIndex idx;
    idx.build(busy);
    for (int q = 0; q < 50; ++q) {
      const Time ready = fractional
                             ? rng.uniform_real(-2.0, cursor + 5.0)
                             : static_cast<Time>(rng.index(60)) - 2;
      const Time dur = fractional ? rng.uniform_real(0.0, 12.0)
                                  : static_cast<Time>(rng.index(12));
      const Time expected = earliest_fit(busy, ready, dur);
      const Time got = idx.query(ready, dur);
      ASSERT_EQ(got, expected) << "round=" << round << " ready=" << ready
                               << " dur=" << dur;
    }
  }
}

TEST(SlotIndex, RejectsNegativeDuration) {
  SlotIndex idx;
  idx.build({});
  EXPECT_THROW((void)idx.query(0, -1), PreconditionError);
}

// --- SlotIndex::insert: the incrementally grown index ------------------------

/// A candidate interval for the grown list: at the tail, inside an
/// interior gap, zero-length on a boundary (ties), a duplicate of an
/// existing interval, or one that overruns a gap by less than the time
/// tolerance. Some candidates overlap a neighbour; insert must reject
/// those.
Interval random_candidate(Rng& rng, const std::vector<Interval>& busy) {
  const auto pick = [&]() -> const Interval& {
    return busy[rng.index(busy.size())];
  };
  Time tail = 0;
  for (const Interval& iv : busy) tail = std::max(tail, iv.finish);
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
    case 4: {  // overruns the gap before an interval by under the tolerance
      const std::size_t j = rng.index(busy.size());
      const Time open = j == 0 ? 0 : busy[j - 1].finish;
      return {open, busy[j].start + 0.5 * kTimeEpsilon};
    }
    default: {  // anywhere: may overlap
      const Time start = rng.uniform_real(0.0, tail + 2);
      return {start, start + length(4)};
    }
  }
}

/// Property: after every insert the grown index equals a fresh build
/// over the grown list, answers every query like earliest_fit, and put
/// the interval where Schedule::place_task puts a task with those times.
TEST(SlotIndexInsert, RandomInsertSequencesEqualAFreshBuild) {
  constexpr int kInserts = 60;
  graph::TaskGraphBuilder b;
  for (int i = 0; i < kInserts; ++i) (void)b.add_task(1);
  const graph::TaskGraph g = b.build();
  const net::Topology topo = net::Topology::clique(2);
  Rng rng(23);
  int interior = 0;
  int rejected = 0;
  for (int round = 0; round < 120; ++round) {
    std::vector<Interval> busy;
    SlotIndex grown;
    grown.build(busy);
    Schedule s(g, topo);
    TaskId next = 0;
    for (int step = 0; step < 3 * kInserts && next < kInserts; ++step) {
      const Interval iv = random_candidate(rng, busy);
      const std::vector<Interval> before = busy;
      std::size_t pos = 0;
      try {
        pos = grown.insert(busy, iv);
      } catch (const InvariantError&) {
        // Rejected: list and index untouched.
        ++rejected;
        ASSERT_EQ(busy.size(), before.size());
        SlotIndex fresh;
        fresh.build(busy);
        ASSERT_TRUE(SlotIndexTestPeer::same_arrays(grown, fresh))
            << "round=" << round;
        continue;
      }
      interior += pos + 1 < busy.size();
      s.place_task(next, 0, iv.start, iv.finish);
      ++next;
      // Same position as the schedule's processor order.
      const std::vector<TaskId>& order = s.tasks_on(0);
      ASSERT_EQ(order.size(), busy.size());
      ASSERT_EQ(order[pos], next - 1) << "round=" << round << " step=" << step;
      for (std::size_t i = 0; i < order.size(); ++i) {
        ASSERT_EQ(s.start_of(order[i]), busy[i].start);
        ASSERT_EQ(s.finish_of(order[i]), busy[i].finish);
      }
      SlotIndex fresh;
      fresh.build(busy);
      ASSERT_TRUE(SlotIndexTestPeer::same_arrays(grown, fresh))
          << "round=" << round << " step=" << step << " pos=" << pos;
      for (int q = 0; q < 8; ++q) {
        const Time ready = rng.uniform_real(-1.0, busy.back().finish + 3);
        // Durations within a few tolerances of a gap's capacity probe
        // the tree's slack.
        Time dur = rng.uniform_real(0.0, 6.0);
        if (q % 2 == 1) {
          const std::size_t j = rng.index(busy.size());
          const Time open = j == 0 ? 0 : busy[j - 1].finish;
          dur = std::max(Time{0}, busy[j].start - open +
                                      kTimeEpsilon * rng.uniform_real(-2, 2));
        }
        ASSERT_EQ(grown.query(ready, dur), earliest_fit(busy, ready, dur))
            << "round=" << round << " ready=" << ready << " dur=" << dur;
      }
    }
  }
  EXPECT_GT(interior, 500);
  EXPECT_GT(rejected, 100);
}

TEST(SlotIndexInsert, GrowsThroughTreeResizesAndTies) {
  // Tail inserts cross every power-of-two tree size; zero-length ties at
  // one instant keep insertion order among equals and sort before the
  // longer interval that starts there.
  std::vector<Interval> busy;
  SlotIndex grown;
  grown.build(busy);
  for (int i = 0; i < 33; ++i) {
    const auto t = static_cast<Time>(2 * i);
    EXPECT_EQ(grown.insert(busy, {t, t + 1}), static_cast<std::size_t>(i));
    SlotIndex fresh;
    fresh.build(busy);
    ASSERT_TRUE(SlotIndexTestPeer::same_arrays(grown, fresh)) << i;
  }
  EXPECT_EQ(grown.insert(busy, {1, 1}), 1u);   // zero-length in gap 1
  EXPECT_EQ(grown.insert(busy, {1, 2}), 2u);   // after the tie's shorter one
  EXPECT_EQ(grown.insert(busy, {1, 1}), 2u);   // equal tie: after its twin
  EXPECT_DOUBLE_EQ(grown.query(0, 1), 3);      // gap 1 is closed
  EXPECT_DOUBLE_EQ(grown.query(0, 2), 65);     // no gap holds 2
  const std::size_t tail = grown.insert(busy, {65, 65 + 2 * kTimeEpsilon});
  EXPECT_EQ(tail, busy.size() - 1);
  EXPECT_THROW((void)grown.insert(busy, {3.5, 4.5}), InvariantError);
  SlotIndex fresh;
  fresh.build(busy);
  EXPECT_TRUE(SlotIndexTestPeer::same_arrays(grown, fresh));
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
