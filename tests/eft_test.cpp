#include <gtest/gtest.h>

#include "common/check.hpp"
#include "paper_fixture.hpp"
#include "sched/metrics.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::sched {
namespace {

namespace pf = bsa::testing;

TEST(Eft, ValidOnPaperExample) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  const auto result = schedule_eft_oblivious(g, topo, cm);
  EXPECT_TRUE(result.schedule.all_placed());
  const auto report = sched::validate(result.schedule, cm);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(result.schedule.makespan(),
            sched::schedule_length_lower_bound(g, cm));
}

TEST(Eft, Deterministic) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  const auto a = schedule_eft_oblivious(g, topo, cm);
  const auto b = schedule_eft_oblivious(g, topo, cm);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(a.schedule.proc_of(t), b.schedule.proc_of(t));
  }
}

TEST(Eft, SingleTaskFastestProcessor) {
  graph::TaskGraphBuilder b;
  (void)b.add_task(10);
  const auto g = b.build();
  const auto topo = net::Topology::ring(3);
  const std::vector<Cost> matrix{30, 10, 20};
  const auto cm =
      net::HeterogeneousCostModel::from_exec_matrix(g, topo, matrix);
  const auto result = schedule_eft_oblivious(g, topo, cm);
  EXPECT_EQ(result.schedule.proc_of(0), 1);
}

class EftProperty
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(EftProperty, ValidOnRandomInstances) {
  const auto [granularity, seed] = GetParam();
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = granularity;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = net::Topology::random(8, 2, 5, seed);
  const auto cm = net::HeterogeneousCostModel::uniform(
      g, topo, 1, 50, 1, 50, derive_seed(seed, 31));
  const auto result = schedule_eft_oblivious(g, topo, cm);
  const auto report = sched::validate(result.schedule, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EftProperty,
    ::testing::Combine(::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(4u, 5u)));

}  // namespace
}  // namespace bsa::sched
