#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/bsa.hpp"
#include "graph/traversal.hpp"
#include "network/cost_model.hpp"
#include "sched/validate.hpp"
#include "workloads/regular.hpp"

namespace bsa::workloads {
namespace {

TEST(Cholesky, TaskCountFormula) {
  // tiles=2: k=0: POTRF + TRSM + SYRK = 3; k=1: POTRF = 1 -> 4.
  EXPECT_EQ(cholesky_task_count(2), 4);
  // tiles=4: k=0: 1+3+3+3=10, k=1: 1+2+2+1=6, k=2: 1+1+1+0=3, k=3: 1 -> 20.
  EXPECT_EQ(cholesky_task_count(4), 20);
  const auto g = cholesky(4);
  EXPECT_EQ(g.num_tasks(), 20);
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(Cholesky, PotrfChainSequential) {
  const auto g = cholesky(5);
  TaskId p0 = kInvalidTask, p4 = kInvalidTask;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (g.task_name(t) == "POTRF0") p0 = t;
    if (g.task_name(t) == "POTRF4") p4 = t;
  }
  ASSERT_NE(p0, kInvalidTask);
  ASSERT_NE(p4, kInvalidTask);
  EXPECT_TRUE(graph::ancestor_mask(g, p4)[static_cast<std::size_t>(p0)]);
  // POTRF0 is the unique entry.
  ASSERT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.entry_tasks()[0], p0);
}

TEST(Cholesky, RejectsBadParameters) {
  EXPECT_THROW((void)cholesky(1), PreconditionError);
}

/// All the extra generators must be schedulable end to end.
class ExtraWorkloadSchedulable
    : public ::testing::TestWithParam<int> {};

TEST_P(ExtraWorkloadSchedulable, BsaProducesValidSchedules) {
  CostParams cp;
  cp.seed = 5;
  const graph::TaskGraph g = GetParam() == 0 ? cholesky(5, cp) : fft(8, cp);
  const auto topo = net::Topology::hypercube(3);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 10, 1, 10, 3);
  const auto result = core::schedule_bsa(g, topo, cm);
  const auto report = sched::validate(result.schedule, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, ExtraWorkloadSchedulable,
                         ::testing::Values(0, 1));

}  // namespace
}  // namespace bsa::workloads
