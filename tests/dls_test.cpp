#include <gtest/gtest.h>

#include "common/check.hpp"
#include "baselines/dls.hpp"
#include "paper_fixture.hpp"
#include "sched/event_sim.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::baselines {
namespace {

namespace pf = bsa::testing;

struct DlsPaperTest : ::testing::Test {
  graph::TaskGraph g = pf::paper_task_graph();
  net::Topology topo = pf::paper_ring();
  net::HeterogeneousCostModel cm = pf::paper_cost_model(g, topo);
};

TEST_F(DlsPaperTest, ProducesValidSchedule) {
  const auto result = schedule_dls(g, topo, cm);
  EXPECT_TRUE(result.schedule.all_placed());
  const auto report = sched::validate(result.schedule, cm);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(result.schedule.makespan(),
            sched::schedule_length_lower_bound(g, cm));
}

TEST_F(DlsPaperTest, StaticLevelsUseMedianExecCosts) {
  const auto result = schedule_dls(g, topo, cm);
  // SL*(T9) = median exec of T9 = 15.5 (no successors).
  EXPECT_DOUBLE_EQ(result.ranks[pf::T9], 15.5);
  // SL*(T8) = median(T8) + SL*(T9) = (47+51)/2 ... medians: T8 row
  // {51,18,47,74} -> (47+51)/2 = 49; so 49 + 15.5 = 64.5.
  EXPECT_DOUBLE_EQ(result.ranks[pf::T8], 64.5);
  // SL* decreases along edges.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_GT(result.ranks[g.edge_src(e)],
              result.ranks[g.edge_dst(e)]);
  }
}

TEST_F(DlsPaperTest, Deterministic) {
  const auto a = schedule_dls(g, topo, cm);
  const auto b = schedule_dls(g, topo, cm);
  EXPECT_DOUBLE_EQ(a.schedule.makespan(), b.schedule.makespan());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(a.schedule.proc_of(t), b.schedule.proc_of(t));
    EXPECT_DOUBLE_EQ(a.schedule.start_of(t), b.schedule.start_of(t));
  }
}

TEST_F(DlsPaperTest, SeededTieBreaksAreValidAndDeterministic) {
  // A non-zero seed switches the equal-dynamic-level tie order to a hash
  // shuffle; the schedule must stay valid and repeat for the same seed.
  DlsOptions opt;
  opt.seed = 7;
  const auto a = schedule_dls(g, topo, cm, opt);
  const auto b = schedule_dls(g, topo, cm, opt);
  EXPECT_TRUE(sched::validate(a.schedule, cm).ok());
  EXPECT_DOUBLE_EQ(a.schedule.makespan(), b.schedule.makespan());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(a.schedule.proc_of(t), b.schedule.proc_of(t));
  }
  // seed == 0 is exactly the default deterministic order.
  DlsOptions zero;
  zero.seed = 0;
  const auto c = schedule_dls(g, topo, cm, zero);
  const auto d = schedule_dls(g, topo, cm);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(c.schedule.proc_of(t), d.schedule.proc_of(t));
    EXPECT_DOUBLE_EQ(c.schedule.start_of(t), d.schedule.start_of(t));
  }
}

TEST_F(DlsPaperTest, TimesAgreeWithEventSimulationModuloSlack) {
  // DLS uses append placement, so starts equal max(DA, TF) — execution
  // under recorded orders can only start tasks at or before those times.
  const auto result = schedule_dls(g, topo, cm);
  const auto sim = sched::simulate_execution(result.schedule, cm);
  ASSERT_TRUE(sim.completed) << sim.error;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_LE(sim.task_start[static_cast<std::size_t>(t)],
              result.schedule.start_of(t));
  }
}

TEST(DlsSmall, SingleTaskPicksLargestDynamicLevel) {
  // DL = SL* - start + (median - exec): start 0 everywhere, so the
  // fastest processor (largest delta) wins.
  graph::TaskGraphBuilder b;
  (void)b.add_task(10);
  const auto g = b.build();
  const auto topo = net::Topology::ring(3);
  const std::vector<Cost> matrix{30, 10, 20};
  const auto cm =
      net::HeterogeneousCostModel::from_exec_matrix(g, topo, matrix);
  const auto result = schedule_dls(g, topo, cm);
  EXPECT_EQ(result.schedule.proc_of(0), 1);
  EXPECT_DOUBLE_EQ(result.schedule.makespan(), 10);
}

TEST(DlsSmall, RespectsReadiness) {
  // Diamond: middle tasks only become ready after the source commits.
  graph::TaskGraphBuilder b;
  const TaskId s = b.add_task(10);
  const TaskId m1 = b.add_task(10);
  const TaskId m2 = b.add_task(10);
  const TaskId t = b.add_task(10);
  (void)b.add_edge(s, m1, 2);
  (void)b.add_edge(s, m2, 2);
  (void)b.add_edge(m1, t, 2);
  (void)b.add_edge(m2, t, 2);
  const auto g = b.build();
  const auto topo = net::Topology::clique(4);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  const auto result = schedule_dls(g, topo, cm);
  const auto report = sched::validate(result.schedule, cm);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(result.schedule.start_of(m1), result.schedule.finish_of(s));
  EXPECT_GE(result.schedule.start_of(t),
            std::max(result.schedule.finish_of(m1),
                     result.schedule.finish_of(m2)));
}

TEST(DlsSmall, RoutesMultiHopMessages) {
  // Linear array forces multi-hop communication when tasks spread.
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(100);
  const TaskId c = b.add_task(100);
  const TaskId d = b.add_task(100);
  (void)b.add_edge(a, c, 1);
  (void)b.add_edge(a, d, 1);
  const auto g = b.build();
  const auto topo = net::Topology::linear(3);
  // Make the far processor extremely attractive for task d.
  std::vector<Cost> matrix{
      100, 400, 400,   // a prefers P0
      400, 100, 400,   // c prefers P1
      400, 400, 5,     // d strongly prefers P2
  };
  const auto cm =
      net::HeterogeneousCostModel::from_exec_matrix(g, topo, matrix);
  const auto result = schedule_dls(g, topo, cm);
  const auto report = sched::validate(result.schedule, cm);
  EXPECT_TRUE(report.ok()) << report.to_string();
  if (result.schedule.proc_of(a) == 0 && result.schedule.proc_of(d) == 2) {
    const EdgeId e = g.find_edge(a, d);
    EXPECT_EQ(result.schedule.route_of(e).size(), 2u);
  }
}

class DlsProperty
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(DlsProperty, ValidOnRandomInstances) {
  const auto [n, granularity, seed] = GetParam();
  workloads::RandomDagParams params;
  params.num_tasks = n;
  params.granularity = granularity;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const net::Topology topologies[] = {net::Topology::ring(8),
                                      net::Topology::hypercube(3),
                                      net::Topology::clique(8)};
  for (const auto& topo : topologies) {
    const auto cm = net::HeterogeneousCostModel::uniform(
        g, topo, 1, 50, 1, 50, derive_seed(seed, 5));
    const auto result = schedule_dls(g, topo, cm);
    const auto report = sched::validate(result.schedule, cm);
    ASSERT_TRUE(report.ok()) << report.to_string();
    EXPECT_GE(result.schedule.makespan(),
              sched::schedule_length_lower_bound(g, cm));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DlsProperty,
    ::testing::Combine(::testing::Values(20, 50),
                       ::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace bsa::baselines
