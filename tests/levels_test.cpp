#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/levels.hpp"
#include "paper_fixture.hpp"

namespace bsa::graph {
namespace {

namespace pf = bsa::testing;
using pf::paper_task_graph;

TEST(Levels, NominalLevelsOfPaperGraph) {
  const TaskGraph g = paper_task_graph();
  const LevelSets levels = compute_levels(g);

  // CP = T1 -> T7 -> T9 with length 20+100+40+60+10 = 230.
  EXPECT_DOUBLE_EQ(levels.cp_length, 230);

  // Hand-computed t-levels.
  EXPECT_DOUBLE_EQ(levels.t_level[pf::T1], 0);
  EXPECT_DOUBLE_EQ(levels.t_level[pf::T2], 60);    // 20+40
  EXPECT_DOUBLE_EQ(levels.t_level[pf::T7], 120);   // 20+100 via direct edge
  EXPECT_DOUBLE_EQ(levels.t_level[pf::T6], 100);   // 20+40+30+10
  EXPECT_DOUBLE_EQ(levels.t_level[pf::T8], 80);    // via T4: 20+10+40+10
  EXPECT_DOUBLE_EQ(levels.t_level[pf::T9], 220);   // via T7
  EXPECT_DOUBLE_EQ(levels.t_level[pf::T5], 30);

  // Hand-computed b-levels.
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T9], 10);
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T7], 110);   // 40+60+10
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T6], 100);   // 40+50+10
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T8], 100);   // 40+50+10 (tie with T6)
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T4], 150);   // 40+10+100
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T3], 140);   // 30+10+100
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T2], 150);   // 30+10+110
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T1], 230);
  EXPECT_DOUBLE_EQ(levels.b_level[pf::T5], 50);
}

TEST(Levels, CriticalPathMembership) {
  const TaskGraph g = paper_task_graph();
  const LevelSets levels = compute_levels(g);
  EXPECT_TRUE(levels.on_critical_path(pf::T1));
  EXPECT_TRUE(levels.on_critical_path(pf::T7));
  EXPECT_TRUE(levels.on_critical_path(pf::T9));
  EXPECT_FALSE(levels.on_critical_path(pf::T2));
  EXPECT_FALSE(levels.on_critical_path(pf::T5));
  EXPECT_FALSE(levels.on_critical_path(pf::T8));
}

TEST(Levels, ExtractNominalCriticalPath) {
  const TaskGraph g = paper_task_graph();
  Rng rng(0);
  const auto cp = extract_critical_path(g, rng);
  const std::vector<TaskId> expect{pf::T1, pf::T7, pf::T9};
  EXPECT_EQ(cp, expect);
}

TEST(Levels, SingleTask) {
  TaskGraphBuilder b;
  (void)b.add_task(42);
  const TaskGraph g = b.build();
  const LevelSets levels = compute_levels(g);
  EXPECT_DOUBLE_EQ(levels.cp_length, 42);
  EXPECT_DOUBLE_EQ(levels.t_level[0], 0);
  EXPECT_DOUBLE_EQ(levels.b_level[0], 42);
}

TEST(Levels, TieBrokenTowardsLargerExecSum) {
  // Two parallel 2-task chains of equal total length 30; the upper chain
  // has exec sum 20, the lower 28 (comm shorter). Definition 1 requires
  // the larger exec-cost CP.
  TaskGraphBuilder b;
  const TaskId s = b.add_task(1);
  const TaskId a1 = b.add_task(10);
  const TaskId a2 = b.add_task(10);
  const TaskId b1 = b.add_task(14);
  const TaskId b2 = b.add_task(14);
  const TaskId t = b.add_task(1);
  (void)b.add_edge(s, a1, 2);
  (void)b.add_edge(a1, a2, 8);
  (void)b.add_edge(a2, t, 1);
  (void)b.add_edge(s, b1, 1);
  (void)b.add_edge(b1, b2, 1);
  (void)b.add_edge(b2, t, 1);
  const TaskGraph g = b.build();
  const LevelSets levels = compute_levels(g);
  // Both chains total 1+2+10+8+10+1+1 = 33 = 1+1+14+1+14+1+1.
  EXPECT_DOUBLE_EQ(levels.cp_length, 33);
  Rng rng(1);
  std::vector<Cost> exec(6), comm(6);
  for (TaskId i = 0; i < 6; ++i) exec[static_cast<std::size_t>(i)] = g.task_cost(i);
  for (EdgeId e = 0; e < 6; ++e) comm[static_cast<std::size_t>(e)] = g.edge_cost(e);
  const auto cp = extract_critical_path(g, exec, comm, levels, rng);
  const std::vector<TaskId> expect{s, b1, b2, t};
  EXPECT_EQ(cp, expect);
}

TEST(Levels, CustomCostVectors) {
  const TaskGraph g = paper_task_graph();
  // All-zero comm: CP length = longest exec chain.
  std::vector<Cost> exec(9), comm(12, 0);
  for (TaskId t = 0; t < 9; ++t) exec[static_cast<std::size_t>(t)] = g.task_cost(t);
  const LevelSets levels = compute_levels(g, exec, comm);
  // Longest exec chain: T1+T2+T7+T9 = 100 vs T1+T4+T8+T9 = 110.
  EXPECT_DOUBLE_EQ(levels.cp_length, 110);
}

TEST(Levels, RejectsMismatchedSpans) {
  const TaskGraph g = paper_task_graph();
  std::vector<Cost> bad_exec(3), comm(12);
  EXPECT_THROW((void)compute_levels(g, bad_exec, comm), PreconditionError);
}

TEST(Levels, AllCpEntriesConsidered) {
  // Diamond where both middle tasks are on equal CPs through a common
  // entry/exit; extraction must return one complete path.
  TaskGraphBuilder b;
  const TaskId s = b.add_task(5);
  const TaskId m1 = b.add_task(10);
  const TaskId m2 = b.add_task(10);
  const TaskId t = b.add_task(5);
  (void)b.add_edge(s, m1, 3);
  (void)b.add_edge(s, m2, 3);
  (void)b.add_edge(m1, t, 3);
  (void)b.add_edge(m2, t, 3);
  const TaskGraph g = b.build();
  const LevelSets levels = compute_levels(g);
  EXPECT_DOUBLE_EQ(levels.cp_length, 26);
  Rng rng(3);
  const auto cp = extract_critical_path(g, rng);
  ASSERT_EQ(cp.size(), 3u);  // s -> one middle task -> t
  EXPECT_EQ(cp.front(), s);
  EXPECT_EQ(cp.back(), t);
  EXPECT_TRUE(cp[1] == m1 || cp[1] == m2);
}

}  // namespace
}  // namespace bsa::graph
