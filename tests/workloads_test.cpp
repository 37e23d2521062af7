#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/traversal.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/regular.hpp"

namespace bsa::workloads {
namespace {

TEST(GaussianElimination, TaskCountFormula) {
  // count(dim) = dim(dim+1)/2 - 1.
  EXPECT_EQ(gaussian_elimination_task_count(2), 2);
  EXPECT_EQ(gaussian_elimination_task_count(5), 14);
  EXPECT_EQ(gaussian_elimination_task_count(10), 54);
  const auto g = gaussian_elimination(10);
  EXPECT_EQ(g.num_tasks(), 54);
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(GaussianElimination, StructureIsCorrect) {
  const auto g = gaussian_elimination(4);
  // dim=4: steps k=1..3 with 4,3,2 tasks -> 9 tasks.
  EXPECT_EQ(g.num_tasks(), 9);
  // Entry = T1_1 (first pivot); exit = T3_4 (last update) and T3_3.
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.task_name(g.entry_tasks()[0]), "T1_1");
  // The pivot of step k feeds dim-k updates.
  EXPECT_EQ(g.out_degree(g.entry_tasks()[0]), 3);
  EXPECT_EQ(graph::graph_depth(g), 6);  // pivot/update alternation
}

TEST(GaussianElimination, DimForTargetsPaperSizes) {
  for (const int target : {50, 100, 200, 300, 500}) {
    const int dim = gaussian_elimination_dim_for(target);
    const int count = gaussian_elimination_task_count(dim);
    // Within one step of the target (steps are <= dim+1 tasks apart).
    EXPECT_LT(std::abs(count - target), 40) << "target " << target;
  }
}

TEST(LuDecomposition, TaskCountFormula) {
  // k=0: GETRF + 2 TRSM + 1 GEMM = 4; k=1: final GETRF = 1.
  EXPECT_EQ(lu_decomposition_task_count(2), 5);
  // T + T(T-1) + (T-1)T(2T-1)/6 for T=4: 4 + 12 + 14 = 30.
  EXPECT_EQ(lu_decomposition_task_count(4), 30);
  const auto g = lu_decomposition(4);
  EXPECT_EQ(g.num_tasks(), lu_decomposition_task_count(4));
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(LuDecomposition, GetrfChainIsSequential) {
  const auto g = lu_decomposition(4);
  // GETRF(k+1) must be a descendant of GETRF(k).
  TaskId getrf0 = kInvalidTask, getrf1 = kInvalidTask;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (g.task_name(t) == "GETRF0") getrf0 = t;
    if (g.task_name(t) == "GETRF1") getrf1 = t;
  }
  ASSERT_NE(getrf0, kInvalidTask);
  ASSERT_NE(getrf1, kInvalidTask);
  EXPECT_TRUE(graph::ancestor_mask(g, getrf1)[static_cast<std::size_t>(getrf0)]);
}

TEST(Laplace, CountAndWavefrontStructure) {
  EXPECT_EQ(laplace_task_count(7), 49);
  const auto g = laplace(5);
  EXPECT_EQ(g.num_tasks(), 25);
  EXPECT_EQ(g.num_edges(), 2 * 5 * 4);
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(graph::graph_depth(g), 9);  // 2*dim - 1
}

TEST(Mva, CountAndLayerStructure) {
  EXPECT_EQ(mva_task_count(6, 8), 54);
  const auto g = mean_value_analysis(3, 4);
  EXPECT_EQ(g.num_tasks(), 15);
  EXPECT_TRUE(g.is_weakly_connected());
  // Station tasks of level 0 are entries; last aggregator is the exit.
  EXPECT_EQ(g.entry_tasks().size(), 4u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(graph::graph_depth(g), 6);  // S,A alternating x3
}

TEST(Fft, ButterflyStructure) {
  EXPECT_EQ(fft_task_count(8), 32);  // 8 points x (3+1) rows
  const auto g = fft(4);
  EXPECT_EQ(g.num_tasks(), 12);
  // Interior tasks have exactly two successors (straight + butterfly).
  for (TaskId t = 0; t < 8; ++t) {
    EXPECT_EQ(g.out_degree(t), 2);
  }
  EXPECT_TRUE(g.is_weakly_connected());
}

TEST(ForkJoin, Structure) {
  EXPECT_EQ(fork_join_task_count(2, 3), 9);
  const auto g = fork_join(2, 3);
  EXPECT_EQ(g.num_tasks(), 9);
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(graph::graph_depth(g), 5);  // J F J F J
}

TEST(RegularCosts, ExecCostsInRangeAndSeeded) {
  CostParams cp;
  cp.seed = 3;
  const auto a = gaussian_elimination(8, cp);
  const auto b = gaussian_elimination(8, cp);
  cp.seed = 4;
  const auto c = gaussian_elimination(8, cp);
  bool differs = false;
  for (TaskId t = 0; t < a.num_tasks(); ++t) {
    EXPECT_GE(a.task_cost(t), 100);
    EXPECT_LE(a.task_cost(t), 200);
    EXPECT_DOUBLE_EQ(a.task_cost(t), b.task_cost(t));
    if (a.task_cost(t) != c.task_cost(t)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RegularCosts, GranularityIsRealised) {
  for (const double gran : {0.1, 1.0, 10.0}) {
    CostParams cp;
    cp.granularity = gran;
    cp.seed = 5;
    const auto g = laplace(10, cp);
    // Measured granularity within ±30% of the request (comm costs are
    // jittered ±50% around the target mean).
    EXPECT_GT(g.granularity(), gran * 0.7) << gran;
    EXPECT_LT(g.granularity(), gran * 1.3) << gran;
  }
}

TEST(RegularGenerators, RejectBadParameters) {
  EXPECT_THROW((void)gaussian_elimination(1), PreconditionError);
  EXPECT_THROW((void)lu_decomposition(1), PreconditionError);
  EXPECT_THROW((void)laplace(0), PreconditionError);
  EXPECT_THROW((void)mean_value_analysis(0, 4), PreconditionError);
  EXPECT_THROW((void)fft(6), PreconditionError);  // not a power of two
  EXPECT_THROW((void)fork_join(0, 3), PreconditionError);
}

// --- random DAGs -------------------------------------------------------------

TEST(RandomDag, ExactSizeConnectedAcyclic) {
  for (const int n : {10, 50, 200}) {
    RandomDagParams p;
    p.num_tasks = n;
    p.seed = 7;
    const auto g = random_layered_dag(p);
    EXPECT_EQ(g.num_tasks(), n);
    EXPECT_TRUE(g.is_weakly_connected());
    // build() already guarantees acyclicity; topological order exists.
    EXPECT_EQ(g.topological_order().size(), static_cast<std::size_t>(n));
    EXPECT_GE(g.num_edges(), n - 1);
  }
}

TEST(RandomDag, SeedDeterminism) {
  RandomDagParams p;
  p.num_tasks = 60;
  p.seed = 11;
  const auto a = random_layered_dag(p);
  const auto b = random_layered_dag(p);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_src(e), b.edge_src(e));
    EXPECT_EQ(a.edge_dst(e), b.edge_dst(e));
    EXPECT_DOUBLE_EQ(a.edge_cost(e), b.edge_cost(e));
  }
  p.seed = 12;
  const auto c = random_layered_dag(p);
  EXPECT_TRUE(a.num_edges() != c.num_edges() ||
              a.edge_src(0) != c.edge_src(0) ||
              a.edge_cost(0) != c.edge_cost(0));
}

TEST(RandomDag, ExecCostsInPaperRange) {
  RandomDagParams p;
  p.num_tasks = 100;
  p.seed = 13;
  const auto g = random_layered_dag(p);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_GE(g.task_cost(t), 100);
    EXPECT_LE(g.task_cost(t), 200);
  }
  EXPECT_NEAR(g.average_exec_cost(), 150, 15);
}

TEST(RandomDag, GranularityRealised) {
  for (const double gran : {0.1, 1.0, 10.0}) {
    RandomDagParams p;
    p.num_tasks = 150;
    p.granularity = gran;
    p.seed = 17;
    const auto g = random_layered_dag(p);
    EXPECT_GT(g.granularity(), gran * 0.7);
    EXPECT_LT(g.granularity(), gran * 1.4);
  }
}

TEST(RandomDag, IdsAreTopologicallyOrdered) {
  RandomDagParams p;
  p.num_tasks = 80;
  p.seed = 19;
  const auto g = random_layered_dag(p);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(g.edge_src(e), g.edge_dst(e));
  }
}

TEST(RandomDag, RejectsBadParameters) {
  RandomDagParams p;
  p.num_tasks = 1;
  EXPECT_THROW((void)random_layered_dag(p), PreconditionError);
  p.num_tasks = 10;
  p.granularity = 0;
  EXPECT_THROW((void)random_layered_dag(p), PreconditionError);
  p.granularity = 1;
  p.max_preds = 0;
  EXPECT_THROW((void)random_layered_dag(p), PreconditionError);
}

}  // namespace
}  // namespace bsa::workloads
