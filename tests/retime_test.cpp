#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bsa_oracle.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "network/cost_model.hpp"
#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::sched {
namespace {

using bsa::testing::try_retime;

/// Fork graph A -> {B, C} -> D over a triangle of processors.
struct RetimeTest : ::testing::Test {
  graph::TaskGraph make_graph() {
    graph::TaskGraphBuilder b;
    const TaskId a = b.add_task(10, "A");
    const TaskId bb = b.add_task(10, "B");
    const TaskId c = b.add_task(10, "C");
    const TaskId d = b.add_task(10, "D");
    (void)b.add_edge(a, bb, 4);   // e0
    (void)b.add_edge(a, c, 4);    // e1
    (void)b.add_edge(bb, d, 4);   // e2
    (void)b.add_edge(c, d, 4);    // e3
    return b.build();
  }
  graph::TaskGraph g = make_graph();
  net::Topology topo = net::Topology::ring(3);
  net::HeterogeneousCostModel cm =
      net::HeterogeneousCostModel::homogeneous(g, topo);
  TaskId A = 0, B = 1, C = 2, D = 3;
};

TEST_F(RetimeTest, NoOpOnTightSchedule) {
  Schedule s(g, topo);
  s.place_task(A, 0, 0, 10);
  s.place_task(B, 0, 10, 20);
  s.place_task(C, 0, 20, 30);
  s.place_task(D, 0, 30, 40);
  Time mk = 0;
  ASSERT_TRUE(try_retime(s, cm, &mk));
  EXPECT_DOUBLE_EQ(mk, 40);
  EXPECT_DOUBLE_EQ(s.start_of(B), 10);
  EXPECT_DOUBLE_EQ(s.start_of(D), 30);
}

TEST_F(RetimeTest, BubblesUpAfterRemoval) {
  Schedule s(g, topo);
  s.place_task(A, 0, 0, 10);
  s.place_task(B, 0, 10, 20);
  s.place_task(C, 0, 20, 30);
  s.place_task(D, 0, 30, 40);
  // B migrates away conceptually: remove it and put it on P1.
  s.unplace_task(B);
  const LinkId l01 = topo.link_between(0, 1);
  s.set_route(0, {Hop{l01, 10, 14}});   // A->B
  s.place_task(B, 1, 14, 24);
  s.set_route(2, {Hop{l01, 24, 28}});   // B->D
  Time mk = 0;
  ASSERT_TRUE(try_retime(s, cm, &mk));
  // C bubbles up to [10,20); D waits for B's message at 28.
  EXPECT_DOUBLE_EQ(s.start_of(C), 10);
  EXPECT_DOUBLE_EQ(s.start_of(D), 28);
  EXPECT_DOUBLE_EQ(mk, 38);
  EXPECT_TRUE(validate(s, cm).ok());
}

TEST_F(RetimeTest, PushesLateWhenHopDelayed) {
  Schedule s(g, topo);
  const LinkId l01 = topo.link_between(0, 1);
  s.place_task(A, 0, 0, 10);
  s.set_route(1, {Hop{l01, 10, 14}});  // A->C
  s.place_task(C, 1, 14, 24);
  s.place_task(B, 0, 10, 20);
  s.set_route(3, {Hop{l01, 24, 28}});  // C->D
  s.place_task(D, 0, 28, 38);
  // Delay A: its successors and messages must shift later.
  s.unplace_task(B);
  s.place_task(B, 0, 0, 10);  // B now first on P0 (no pred dependency on A)
  // B has pred A! Actually B depends on A, so this order is infeasible in
  // times; try_retime must detect the order cycle-free case and push B
  // after A.
  Time mk = 0;
  ASSERT_TRUE(try_retime(s, cm, &mk));
  EXPECT_GE(s.start_of(B), s.finish_of(A));
  EXPECT_TRUE(validate(s, cm).ok());
  EXPECT_GT(mk, 0);
}

TEST_F(RetimeTest, FailsOnOrderCycle) {
  // Two tasks on each of two processors ordered against precedence:
  // P0: [B, A], and message edges force A before B -> cycle via proc order.
  graph::TaskGraphBuilder b2;
  const TaskId x = b2.add_task(10);
  const TaskId y = b2.add_task(10);
  (void)b2.add_edge(x, y, 4);
  const graph::TaskGraph g2 = b2.build();
  const auto cm2 = net::HeterogeneousCostModel::homogeneous(g2, topo);
  Schedule s(g2, topo);
  // y placed earlier than x on the same processor: order says y then x,
  // but precedence says x before y.
  s.place_task(y, 0, 0, 10);
  s.place_task(x, 0, 10, 20);
  Time mk = 0;
  EXPECT_FALSE(try_retime(s, cm2, &mk));
  // Schedule untouched on failure.
  EXPECT_DOUBLE_EQ(s.start_of(y), 0);
  EXPECT_DOUBLE_EQ(s.start_of(x), 10);
}

TEST_F(RetimeTest, ReplayRebuildsConsistentTimes) {
  Schedule s(g, topo);
  const LinkId l01 = topo.link_between(0, 1);
  s.place_task(A, 0, 0, 10);
  s.set_route(1, {Hop{l01, 10, 14}});  // A->C
  s.place_task(C, 1, 14, 24);
  s.place_task(B, 0, 10, 20);
  s.set_route(3, {Hop{l01, 24, 28}});  // C->D
  s.place_task(D, 0, 28, 38);
  const Time mk = bsa::testing::replay_retime(s, cm);
  EXPECT_TRUE(validate(s, cm).ok());
  EXPECT_DOUBLE_EQ(mk, s.makespan());
  EXPECT_DOUBLE_EQ(mk, 38);
}

TEST_F(RetimeTest, ReplayRecoversFromInconsistentOrders) {
  // Same cycle scenario that try_retime rejects: replay re-derives orders
  // from scratch and succeeds.
  graph::TaskGraphBuilder b2;
  const TaskId x = b2.add_task(10);
  const TaskId y = b2.add_task(10);
  (void)b2.add_edge(x, y, 4);
  const graph::TaskGraph g2 = b2.build();
  const auto cm2 = net::HeterogeneousCostModel::homogeneous(g2, topo);
  Schedule s(g2, topo);
  s.place_task(y, 0, 0, 10);
  s.place_task(x, 0, 10, 20);
  const Time mk = bsa::testing::replay_retime(s, cm2);
  EXPECT_TRUE(validate(s, cm2).ok());
  // Replay ignores the bad order: x runs [0,10), y follows at 10.
  EXPECT_DOUBLE_EQ(mk, 20);
  EXPECT_GE(s.start_of(y), s.finish_of(x));
}

TEST_F(RetimeTest, ReplayKeepsAssignment) {
  Schedule s(g, topo);
  const LinkId l01 = topo.link_between(0, 1);
  const LinkId l12 = topo.link_between(1, 2);
  s.place_task(A, 0, 0, 10);
  s.set_route(0, {Hop{l01, 10, 14}});                  // A->B to P1
  s.place_task(B, 1, 14, 24);
  s.set_route(1, {Hop{l01, 14, 18}, Hop{l12, 18, 22}});  // A->C to P2
  s.place_task(C, 2, 22, 32);
  s.set_route(2, {Hop{l01, 24, 28}});                  // B->D back to P0
  s.set_route(3, {Hop{l12, 32, 36}, Hop{l01, 36, 40}});  // C->D to P0
  s.place_task(D, 0, 40, 50);
  (void)bsa::testing::replay_retime(s, cm);
  EXPECT_EQ(s.proc_of(A), 0);
  EXPECT_EQ(s.proc_of(B), 1);
  EXPECT_EQ(s.proc_of(C), 2);
  EXPECT_EQ(s.proc_of(D), 0);
  EXPECT_EQ(s.route_of(1).size(), 2u);  // link sequence preserved
  EXPECT_EQ(s.route_of(1)[0].link, l01);
  EXPECT_EQ(s.route_of(1)[1].link, l12);
  EXPECT_TRUE(validate(s, cm).ok());
}

TEST_F(RetimeTest, ReplayRequiresCompletePlacement) {
  Schedule s(g, topo);
  s.place_task(A, 0, 0, 10);
  EXPECT_THROW((void)bsa::testing::replay_retime(s, cm), PreconditionError);
}

TEST_F(RetimeTest, PartialScheduleRetimeAllowed) {
  Schedule s(g, topo);
  s.place_task(A, 0, 5, 15);  // slack before A
  Time mk = 0;
  ASSERT_TRUE(try_retime(s, cm, &mk));
  EXPECT_DOUBLE_EQ(s.start_of(A), 0);  // pulled to time zero
  EXPECT_DOUBLE_EQ(mk, 10);
}

TEST_F(RetimeTest, RoutedMessageWithUnplacedDestination) {
  // A's message to B is already booked but B has not been placed yet
  // (mid-migration state): try_retime must re-time the hop chain without
  // touching the missing destination.
  Schedule s(g, topo);
  const LinkId l01 = topo.link_between(0, 1);
  s.place_task(A, 0, 5, 15);             // slack: A bubbles up to 0
  s.set_route(0, {Hop{l01, 20, 24}});    // A->B, late slot
  Time mk = 0;
  ASSERT_TRUE(try_retime(s, cm, &mk));
  EXPECT_DOUBLE_EQ(s.start_of(A), 0);
  EXPECT_DOUBLE_EQ(s.route_of(0)[0].start, 10);  // hop follows A's finish
  EXPECT_DOUBLE_EQ(s.route_of(0)[0].finish, 14);
  EXPECT_FALSE(s.is_placed(B));
  EXPECT_DOUBLE_EQ(mk, 10);  // makespan counts placed tasks only
}

TEST_F(RetimeTest, UnplacedPredecessorImposesNoConstraint) {
  // B and C unplaced with empty routes: D is constrained only by the
  // processor order (nothing before it), so it bubbles to time zero.
  Schedule s(g, topo);
  s.place_task(D, 0, 30, 40);
  Time mk = 0;
  ASSERT_TRUE(try_retime(s, cm, &mk));
  EXPECT_DOUBLE_EQ(s.start_of(D), 0);
  EXPECT_DOUBLE_EQ(mk, 10);
}

/// Every processor order and link-booking list of `s` is sorted by start.
bool orders_sorted_by_start(const Schedule& s) {
  for (ProcId p = 0; p < s.topology().num_processors(); ++p) {
    const auto& order = s.tasks_on(p);
    if (!std::is_sorted(order.begin(), order.end(), [&](TaskId a, TaskId b) {
          return s.start_of(a) < s.start_of(b);
        })) {
      return false;
    }
  }
  for (LinkId l = 0; l < s.topology().num_links(); ++l) {
    const auto& bookings = s.bookings_on(l);
    if (!std::is_sorted(
            bookings.begin(), bookings.end(),
            [](const LinkBooking& a, const LinkBooking& b) {
              return a.start < b.start;
            })) {
      return false;
    }
  }
  return true;
}

TEST(RetimeOrders, SuccessfulRetimeLeavesEveryOrderSortedByStart) {
  // try_retime keeps the recorded orders and re-sorts nothing: the
  // processor- and link-order chain edges must leave every list sorted
  // by start. Perturb scheduled instances as a migration does (a task
  // re-placed elsewhere at a random time, its messages unrouted, another
  // task's times shifted) and check every successful re-time.
  int retimed = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    workloads::RandomDagParams params;
    params.num_tasks = 30;
    params.seed = seed;
    const graph::TaskGraph g = workloads::random_layered_dag(params);
    const net::Topology topo = net::Topology::random(6, 2, 4, seed);
    const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
        g, topo, 1, 10, 1, 5, derive_seed(seed, 2));
    for (const std::string spec : {"bsa", "dls", "heft"}) {
      Schedule s = SchedulerRegistry::global()
                       .resolve(spec)
                       ->run(g, topo, cm, seed)
                       .schedule;
      Rng rng(derive_seed(seed, 7));
      for (int round = 0; round < 20; ++round) {
        const auto t = static_cast<TaskId>(
            rng.index(static_cast<std::size_t>(g.num_tasks())));
        for (const EdgeId e : g.in_edges(t)) s.clear_route(e);
        for (const EdgeId e : g.out_edges(t)) s.clear_route(e);
        const Time at = static_cast<Time>(rng.index(
            static_cast<std::size_t>(s.makespan()) + 1));
        const auto p = static_cast<ProcId>(
            rng.index(static_cast<std::size_t>(topo.num_processors())));
        const Time dur = cm.exec_cost(t, p);
        s.unplace_task(t);
        s.place_task(t, p, at, at + dur);
        const auto u = static_cast<TaskId>(
            rng.index(static_cast<std::size_t>(g.num_tasks())));
        s.set_task_times(u, s.start_of(u) + 3, s.finish_of(u) + 3);
        Time mk = 0;
        if (!try_retime(s, cm, &mk)) continue;
        ++retimed;
        ASSERT_TRUE(orders_sorted_by_start(s))
            << spec << " seed " << seed << " round " << round;
      }
    }
  }
  // Most perturbations keep the orders acyclic; the check is not vacuous.
  EXPECT_GT(retimed, 40);
}

}  // namespace
}  // namespace bsa::sched
