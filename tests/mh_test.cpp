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

TEST(Mh, ValidOnPaperExample) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  const auto result = schedule_mh(g, topo, cm);
  EXPECT_TRUE(result.schedule.all_placed());
  const auto report = sched::validate(result.schedule, cm);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(result.schedule.makespan(),
            sched::schedule_length_lower_bound(g, cm));
}

TEST(Mh, Deterministic) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  const auto a = schedule_mh(g, topo, cm);
  const auto b = schedule_mh(g, topo, cm);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(a.schedule.proc_of(t), b.schedule.proc_of(t));
    EXPECT_DOUBLE_EQ(a.schedule.start_of(t), b.schedule.start_of(t));
  }
}

TEST(Mh, SingleTaskFastestProcessor) {
  graph::TaskGraphBuilder b;
  (void)b.add_task(10);
  const auto g = b.build();
  const auto topo = net::Topology::ring(3);
  const std::vector<Cost> matrix{30, 10, 20};
  const auto cm =
      net::HeterogeneousCostModel::from_exec_matrix(g, topo, matrix);
  const auto result = schedule_mh(g, topo, cm);
  EXPECT_EQ(result.schedule.proc_of(0), 1);
  EXPECT_DOUBLE_EQ(result.schedule.makespan(), 10);
}

TEST(Mh, ContentionAwareBeatsObliviousUnderPressure) {
  // At fine granularity the contention-aware MH should not lose badly to
  // its oblivious sibling on average (same priorities, better placement
  // information). Averaged over seeds for robustness.
  double mh_sum = 0;
  double dumb_sum = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    workloads::RandomDagParams p;
    p.num_tasks = 50;
    p.granularity = 0.2;
    p.seed = seed;
    const auto g = workloads::random_layered_dag(p);
    const auto topo = net::Topology::ring(8);
    const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
        g, topo, 1, 20, 1, 20, derive_seed(seed, 3));
    mh_sum += schedule_mh(g, topo, cm).schedule.makespan();
    // EFT shares the priority rule but decides blind to contention.
    dumb_sum += schedule_eft_oblivious(g, topo, cm).schedule.makespan();
  }
  EXPECT_LT(mh_sum, dumb_sum * 1.05);
}

class MhProperty
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(MhProperty, ValidOnRandomInstances) {
  const auto [granularity, seed] = GetParam();
  workloads::RandomDagParams p;
  p.num_tasks = 40;
  p.granularity = granularity;
  p.seed = seed;
  const auto g = workloads::random_layered_dag(p);
  const auto topo = net::Topology::random(8, 2, 5, seed);
  const auto cm = net::HeterogeneousCostModel::uniform(
      g, topo, 1, 50, 1, 50, derive_seed(seed, 41));
  const auto result = schedule_mh(g, topo, cm);
  const auto report = sched::validate(result.schedule, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MhProperty,
    ::testing::Combine(::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(6u, 7u)));

}  // namespace
}  // namespace bsa::sched
