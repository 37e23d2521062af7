#include <gtest/gtest.h>

#include "core/bsa.hpp"
#include "core/serialization.hpp"
#include "graph/traversal.hpp"
#include "paper_fixture.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::core {
namespace {

namespace pf = bsa::testing;

TEST(Serialization, PaperNominalOrderExact) {
  const auto g = pf::paper_task_graph();
  Rng rng(0);
  const auto result = serialize(g, rng);
  // §2.2: "The final serialized list is {T1,T2,T7,T4,T3,T8,T6,T9,T5}".
  const std::vector<TaskId> expect{pf::T1, pf::T2, pf::T7, pf::T4, pf::T3,
                                   pf::T8, pf::T6, pf::T9, pf::T5};
  EXPECT_EQ(result.order, expect);
}

TEST(Serialization, PaperNominalClassification) {
  const auto g = pf::paper_task_graph();
  Rng rng(0);
  const auto result = serialize(g, rng);
  EXPECT_EQ(result.task_class[pf::T1], TaskClass::kCriticalPath);
  EXPECT_EQ(result.task_class[pf::T7], TaskClass::kCriticalPath);
  EXPECT_EQ(result.task_class[pf::T9], TaskClass::kCriticalPath);
  // In-branch: ancestors of CP tasks.
  EXPECT_EQ(result.task_class[pf::T2], TaskClass::kInBranch);
  EXPECT_EQ(result.task_class[pf::T3], TaskClass::kInBranch);
  EXPECT_EQ(result.task_class[pf::T4], TaskClass::kInBranch);
  EXPECT_EQ(result.task_class[pf::T6], TaskClass::kInBranch);
  EXPECT_EQ(result.task_class[pf::T8], TaskClass::kInBranch);
  // "The only OB task, T5".
  EXPECT_EQ(result.task_class[pf::T5], TaskClass::kOutBranch);
}

TEST(Serialization, PaperPivotOrderOnP2) {
  // With Table 1 costs on P2 the CP ties at 226 between {T1,T7,T9} and
  // {T1,T2,T7,T9}; the larger-exec-sum rule selects the latter, giving
  // {T1,T2,T7,T6,T3,T4,T8,T9,T5} — the paper prints the same multiset
  // with T6/T7 transposed (see DESIGN.md §4). Crucially T3 now precedes
  // T4 (reversed vs the nominal order) because P2 flips their b-levels.
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  Rng rng(0);
  const auto exec = cm.exec_costs_on(1);  // P2
  const auto result = serialize(g, exec, cm.nominal_comm_costs(), rng);
  const std::vector<TaskId> expect{pf::T1, pf::T2, pf::T7, pf::T6, pf::T3,
                                   pf::T4, pf::T8, pf::T9, pf::T5};
  EXPECT_EQ(result.order, expect);
  EXPECT_DOUBLE_EQ(result.levels.cp_length, 226);
}

TEST(Serialization, OrderIsAlwaysTopological) {
  const auto g = pf::paper_task_graph();
  Rng rng(1);
  const auto result = serialize(g, rng);
  EXPECT_TRUE(graph::is_topological_order(g, result.order));
}

TEST(Serialization, CpTasksAppearInPathOrder) {
  const auto g = pf::paper_task_graph();
  Rng rng(0);
  const auto result = serialize(g, rng);
  std::vector<int> pos(9);
  for (std::size_t i = 0; i < result.order.size(); ++i) {
    pos[static_cast<std::size_t>(result.order[i])] = static_cast<int>(i);
  }
  for (std::size_t i = 1; i < result.critical_path.size(); ++i) {
    EXPECT_LT(pos[static_cast<std::size_t>(result.critical_path[i - 1])],
              pos[static_cast<std::size_t>(result.critical_path[i])]);
  }
}

TEST(Serialization, ObTasksLastInDescendingBLevel) {
  // Graph with two OB sinks of different b-levels.
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(10);
  const TaskId cp2 = b.add_task(50);
  const TaskId ob_small = b.add_task(5);
  const TaskId ob_large = b.add_task(30);
  (void)b.add_edge(a, cp2, 100);
  (void)b.add_edge(a, ob_small, 1);
  (void)b.add_edge(a, ob_large, 1);
  const auto g = b.build();
  Rng rng(0);
  const auto result = serialize(g, rng);
  ASSERT_EQ(result.order.size(), 4u);
  EXPECT_EQ(result.order[0], a);
  EXPECT_EQ(result.order[1], cp2);
  EXPECT_EQ(result.order[2], ob_large);  // b-level 30 > 5
  EXPECT_EQ(result.order[3], ob_small);
  EXPECT_EQ(result.task_class[static_cast<std::size_t>(ob_large)],
            TaskClass::kOutBranch);
}

TEST(Serialization, SingleTaskGraph) {
  graph::TaskGraphBuilder b;
  (void)b.add_task(5);
  const auto g = b.build();
  Rng rng(0);
  const auto result = serialize(g, rng);
  ASSERT_EQ(result.order.size(), 1u);
  EXPECT_EQ(result.task_class[0], TaskClass::kCriticalPath);
}

TEST(Serialization, IndependentTasksAllClassified) {
  // Star: one source feeding independent sinks; CP goes through the
  // heaviest branch, others are OB.
  graph::TaskGraphBuilder b;
  const TaskId s = b.add_task(10);
  for (int i = 0; i < 5; ++i) {
    const TaskId t = b.add_task(10 + i);
    (void)b.add_edge(s, t, 2);
  }
  const auto g = b.build();
  Rng rng(0);
  const auto result = serialize(g, rng);
  EXPECT_EQ(result.order.size(), 6u);
  int cp = 0, ib = 0, ob = 0;
  for (const auto c : result.task_class) {
    if (c == TaskClass::kCriticalPath) ++cp;
    if (c == TaskClass::kInBranch) ++ib;
    if (c == TaskClass::kOutBranch) ++ob;
  }
  EXPECT_EQ(cp, 2);
  EXPECT_EQ(ib, 0);
  EXPECT_EQ(ob, 4);
}

// Property sweep: serialization of random graphs is a permutation and a
// topological order, and CP tasks hold the earliest feasible positions.
class SerializationProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SerializationProperty, ValidOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  workloads::RandomDagParams params;
  params.num_tasks = n;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  Rng rng(seed);
  const auto result = serialize(g, rng);
  EXPECT_TRUE(graph::is_topological_order(g, result.order));
  // Every CP task must be classified kCriticalPath.
  for (const TaskId t : result.critical_path) {
    EXPECT_EQ(result.task_class[static_cast<std::size_t>(t)],
              TaskClass::kCriticalPath);
  }
  // IB tasks are ancestors of some CP task.
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (result.task_class[static_cast<std::size_t>(t)] != TaskClass::kInBranch)
      continue;
    bool is_ancestor = false;
    for (const TaskId c : result.critical_path) {
      if (graph::ancestor_mask(g, c)[static_cast<std::size_t>(t)]) {
        is_ancestor = true;
        break;
      }
    }
    EXPECT_TRUE(is_ancestor) << "IB task " << t << " has no CP descendant";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializationProperty,
    ::testing::Combine(::testing::Values(10, 30, 60, 120),
                       ::testing::Values(1u, 2u, 3u)));

// --- b-level ablation variant ------------------------------------------------

TEST(SerializationByBlevel, TopologicalAndComplete) {
  const auto g = pf::paper_task_graph();
  Rng rng(0);
  std::vector<Cost> exec(9), comm(12);
  for (TaskId t = 0; t < 9; ++t) exec[static_cast<std::size_t>(t)] = g.task_cost(t);
  for (EdgeId e = 0; e < 12; ++e) comm[static_cast<std::size_t>(e)] = g.edge_cost(e);
  const auto result = serialize_by_blevel(g, exec, comm, rng);
  EXPECT_TRUE(graph::is_topological_order(g, result.order));
  EXPECT_EQ(result.order.size(), 9u);
  // Nominal b-levels: T1=230, T2=T4=150 (t-level 60 vs 30, so T4 first),
  // T3=140, T7=110, T6=T8=100 (t-level 100 vs 80, so T8 first), T5=50,
  // T9=10.
  const std::vector<TaskId> expect{pf::T1, pf::T4, pf::T2, pf::T3, pf::T7,
                                   pf::T8, pf::T6, pf::T5, pf::T9};
  EXPECT_EQ(result.order, expect);
}

TEST(SerializationByBlevel, DiffersFromCpIbObOnPaperGraph) {
  const auto g = pf::paper_task_graph();
  Rng rng_a(0);
  Rng rng_b(0);
  const auto cp_order = serialize(g, rng_a).order;
  std::vector<Cost> exec(9), comm(12);
  for (TaskId t = 0; t < 9; ++t) exec[static_cast<std::size_t>(t)] = g.task_cost(t);
  for (EdgeId e = 0; e < 12; ++e) comm[static_cast<std::size_t>(e)] = g.edge_cost(e);
  const auto bl_order = serialize_by_blevel(g, exec, comm, rng_b).order;
  EXPECT_NE(cp_order, bl_order);
}

TEST(SerializationByBlevel, BsaRunsValidWithIt) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  BsaOptions opt;
  opt.serialization = SerializationRule::kBLevel;
  const auto result = schedule_bsa(g, topo, cm, opt);
  EXPECT_TRUE(result.schedule.all_placed());
}

}  // namespace
}  // namespace bsa::core
