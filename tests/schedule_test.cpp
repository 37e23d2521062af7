#include <gtest/gtest.h>

#include "common/check.hpp"
#include "paper_fixture.hpp"
#include "sched/schedule.hpp"

namespace bsa::sched {
namespace {

namespace pf = bsa::testing;

struct ScheduleTest : ::testing::Test {
  graph::TaskGraph g = pf::paper_task_graph();
  net::Topology topo = pf::paper_ring();
  Schedule s{g, topo};
};

TEST_F(ScheduleTest, StartsEmpty) {
  EXPECT_EQ(s.num_placed(), 0);
  EXPECT_FALSE(s.all_placed());
  EXPECT_DOUBLE_EQ(s.makespan(), 0);
  EXPECT_FALSE(s.is_placed(pf::T1));
  EXPECT_THROW((void)s.proc_of(pf::T1), PreconditionError);
}

TEST_F(ScheduleTest, PlaceAndQuery) {
  s.place_task(pf::T1, 1, 0, 7);
  EXPECT_TRUE(s.is_placed(pf::T1));
  EXPECT_EQ(s.proc_of(pf::T1), 1);
  EXPECT_DOUBLE_EQ(s.start_of(pf::T1), 0);
  EXPECT_DOUBLE_EQ(s.finish_of(pf::T1), 7);
  EXPECT_EQ(s.num_placed(), 1);
  EXPECT_DOUBLE_EQ(s.makespan(), 7);
  ASSERT_EQ(s.tasks_on(1).size(), 1u);
}

TEST_F(ScheduleTest, ProcessorOrderSortedByStart) {
  s.place_task(pf::T2, 0, 50, 71);
  s.place_task(pf::T1, 0, 0, 39);
  s.place_task(pf::T3, 0, 39, 54);
  const auto& order = s.tasks_on(0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], pf::T1);
  EXPECT_EQ(order[1], pf::T3);
  EXPECT_EQ(order[2], pf::T2);
}

TEST_F(ScheduleTest, DoublePlacementRejected) {
  s.place_task(pf::T1, 0, 0, 39);
  EXPECT_THROW(s.place_task(pf::T1, 1, 0, 7), PreconditionError);
}

TEST_F(ScheduleTest, UnplaceRemovesFromOrder) {
  s.place_task(pf::T1, 0, 0, 39);
  s.place_task(pf::T2, 0, 39, 60);
  s.unplace_task(pf::T1);
  EXPECT_FALSE(s.is_placed(pf::T1));
  ASSERT_EQ(s.tasks_on(0).size(), 1u);
  EXPECT_EQ(s.tasks_on(0)[0], pf::T2);
  EXPECT_EQ(s.num_placed(), 1);
  EXPECT_THROW(s.unplace_task(pf::T1), PreconditionError);
}

TEST_F(ScheduleTest, SetTaskTimesKeepsProcessor) {
  s.place_task(pf::T1, 2, 0, 2);
  s.set_task_times(pf::T1, 5, 7);
  EXPECT_DOUBLE_EQ(s.start_of(pf::T1), 5);
  EXPECT_DOUBLE_EQ(s.finish_of(pf::T1), 7);
  EXPECT_EQ(s.proc_of(pf::T1), 2);
}

TEST_F(ScheduleTest, RouteBookkeeping) {
  const EdgeId e12 = g.find_edge(pf::T1, pf::T2);
  const LinkId l01 = topo.link_between(0, 1);
  const LinkId l12 = topo.link_between(1, 2);
  s.place_task(pf::T1, 0, 0, 39);
  s.set_route(e12, {Hop{l01, 39, 79}, Hop{l12, 79, 119}});
  ASSERT_EQ(s.route_of(e12).size(), 2u);
  EXPECT_DOUBLE_EQ(s.arrival_of(e12), 119);
  ASSERT_EQ(s.bookings_on(l01).size(), 1u);
  EXPECT_EQ(s.bookings_on(l01)[0].edge, e12);
  EXPECT_EQ(s.bookings_on(l01)[0].hop_index, 0);
  ASSERT_EQ(s.bookings_on(l12).size(), 1u);
  EXPECT_EQ(s.bookings_on(l12)[0].hop_index, 1);

  s.clear_route(e12);
  EXPECT_TRUE(s.route_of(e12).empty());
  EXPECT_TRUE(s.bookings_on(l01).empty());
  EXPECT_TRUE(s.bookings_on(l12).empty());
}

TEST_F(ScheduleTest, ArrivalOfLocalMessageIsSourceFinish) {
  const EdgeId e12 = g.find_edge(pf::T1, pf::T2);
  s.place_task(pf::T1, 0, 0, 39);
  EXPECT_DOUBLE_EQ(s.arrival_of(e12), 39);
}

TEST_F(ScheduleTest, RouteValidation) {
  const EdgeId e12 = g.find_edge(pf::T1, pf::T2);
  const LinkId l01 = topo.link_between(0, 1);
  // Non-contiguous hop times rejected.
  EXPECT_THROW(
      s.set_route(e12, {Hop{l01, 10, 20}, Hop{topo.link_between(1, 2), 15, 25}}),
      PreconditionError);
  // Double routing rejected.
  s.set_route(e12, {Hop{l01, 0, 40}});
  EXPECT_THROW(s.set_route(e12, {Hop{l01, 50, 90}}), PreconditionError);
}

TEST_F(ScheduleTest, LinkOverlapRejected) {
  const EdgeId e12 = g.find_edge(pf::T1, pf::T2);
  const EdgeId e13 = g.find_edge(pf::T1, pf::T3);
  const LinkId l01 = topo.link_between(0, 1);
  s.set_route(e12, {Hop{l01, 0, 40}});
  EXPECT_THROW(s.set_route(e13, {Hop{l01, 30, 40}}), InvariantError);
  // Touching bookings are fine.
  EXPECT_NO_THROW(s.set_route(e13, {Hop{l01, 40, 50}}));
}

TEST_F(ScheduleTest, SetHopTimesUpdatesBooking) {
  const EdgeId e12 = g.find_edge(pf::T1, pf::T2);
  const LinkId l01 = topo.link_between(0, 1);
  s.set_route(e12, {Hop{l01, 0, 40}});
  s.set_hop_times(e12, 0, 5, 45);
  EXPECT_DOUBLE_EQ(s.route_of(e12)[0].start, 5);
  EXPECT_DOUBLE_EQ(s.bookings_on(l01)[0].start, 5);
  EXPECT_DOUBLE_EQ(s.bookings_on(l01)[0].finish, 45);
  EXPECT_THROW(s.set_hop_times(e12, 3, 0, 1), PreconditionError);
}

TEST_F(ScheduleTest, SlotSearchOnProcessorsAndLinks) {
  s.place_task(pf::T1, 0, 0, 10);
  s.place_task(pf::T2, 0, 30, 50);
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 0, 20), 10);
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(0, 0, 25), 50);
  EXPECT_DOUBLE_EQ(s.earliest_task_slot(1, 12, 99), 12);

  const EdgeId e12 = g.find_edge(pf::T1, pf::T2);
  const LinkId l01 = topo.link_between(0, 1);
  s.set_route(e12, {Hop{l01, 10, 20}});
  EXPECT_DOUBLE_EQ(s.earliest_link_slot(l01, 0, 10), 0);
  EXPECT_DOUBLE_EQ(s.earliest_link_slot(l01, 5, 10), 20);
}

TEST_F(ScheduleTest, AppendHopExtendsRoute) {
  const EdgeId e12 = g.find_edge(pf::T1, pf::T2);
  const LinkId l01 = topo.link_between(0, 1);
  const LinkId l12 = topo.link_between(1, 2);
  s.append_hop(e12, Hop{l01, 0, 40});
  s.append_hop(e12, Hop{l12, 40, 80});
  EXPECT_EQ(s.route_of(e12).size(), 2u);
  // Hop starting before the previous finished is rejected.
  EXPECT_THROW(s.append_hop(e12, Hop{l01, 70, 110}), PreconditionError);
}

}  // namespace
}  // namespace bsa::sched
