#include <gtest/gtest.h>

#include "bsa_oracle.hpp"
#include "common/check.hpp"
#include "core/bsa.hpp"
#include "network/cost_model.hpp"
#include "paper_fixture.hpp"
#include "sched/event_sim.hpp"
#include "sched/retime.hpp"
#include "sched/schedule.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::sched {
namespace {

namespace pf = bsa::testing;

TEST(EventSim, MatchesHandBuiltSchedule) {
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(10, "A");
  const TaskId c = b.add_task(20, "C");
  (void)b.add_edge(a, c, 5);
  const graph::TaskGraph g = b.build();
  const net::Topology topo = net::Topology::ring(3);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  Schedule s(g, topo);
  const LinkId l01 = topo.link_between(0, 1);
  s.place_task(a, 0, 0, 10);
  s.set_route(0, {Hop{l01, 10, 15}});
  s.place_task(c, 1, 15, 35);
  const auto result = simulate_execution(s, cm);
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_DOUBLE_EQ(result.makespan, 35);
  EXPECT_TRUE(simulation_matches(s, result));
}

TEST(EventSim, DetectsMismatchAfterSlack) {
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(10, "A");
  const TaskId c = b.add_task(20, "C");
  (void)b.add_edge(a, c, 5);
  const graph::TaskGraph g = b.build();
  const net::Topology topo = net::Topology::ring(3);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  Schedule s(g, topo);
  s.place_task(a, 0, 0, 10);
  s.place_task(c, 0, 17, 37);  // 7 units of unforced slack
  const auto result = simulate_execution(s, cm);
  ASSERT_TRUE(result.completed);
  // Simulation starts c at 10, so recorded times do not match.
  EXPECT_DOUBLE_EQ(result.task_start[static_cast<std::size_t>(c)], 10);
  EXPECT_FALSE(simulation_matches(s, result));
}

TEST(EventSim, DetectsDeadlockFromBadOrders) {
  graph::TaskGraphBuilder b;
  const TaskId x = b.add_task(10);
  const TaskId y = b.add_task(10);
  (void)b.add_edge(x, y, 4);
  const graph::TaskGraph g = b.build();
  const net::Topology topo = net::Topology::ring(3);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  Schedule s(g, topo);
  s.place_task(y, 0, 0, 10);   // order y before x but y needs x's output
  s.place_task(x, 0, 10, 20);
  const auto result = simulate_execution(s, cm);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("deadlock"), std::string::npos);
}

TEST(EventSim, RequiresCompleteSchedule) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  Schedule s(g, topo);
  s.place_task(pf::T1, 0, 0, 39);
  EXPECT_THROW((void)simulate_execution(s, cm), PreconditionError);
}

TEST(EventSim, CrossChecksBsaOnPaperExample) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  const auto result = core::schedule_bsa(g, topo, cm);
  const auto sim = simulate_execution(result.schedule, cm);
  ASSERT_TRUE(sim.completed) << sim.error;
  EXPECT_TRUE(simulation_matches(result.schedule, sim))
      << "BSA schedule times disagree with independent execution";
  EXPECT_DOUBLE_EQ(sim.makespan, result.schedule.makespan());
}

TEST(EventSim, CrossChecksReplayOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    workloads::RandomDagParams params;
    params.num_tasks = 40;
    params.granularity = 1.0;
    params.seed = seed;
    const auto g = workloads::random_layered_dag(params);
    const auto topo = net::Topology::hypercube(3);
    const auto cm =
        net::HeterogeneousCostModel::uniform(g, topo, 1, 10, 1, 10, seed);
    const auto result = core::schedule_bsa(g, topo, cm);
    Schedule replayed = result.schedule;
    (void)bsa::testing::replay_retime(replayed, cm);
    const auto sim = simulate_execution(replayed, cm);
    ASSERT_TRUE(sim.completed) << sim.error;
    EXPECT_TRUE(simulation_matches(replayed, sim)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bsa::sched
