#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/check.hpp"
#include "graph/task_graph.hpp"
#include "graph/traversal.hpp"
#include "paper_fixture.hpp"

namespace bsa::graph {
namespace {

using bsa::testing::paper_task_graph;
namespace pf = bsa::testing;

TaskGraph chain3() {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(10);
  const TaskId c = b.add_task(20);
  const TaskId d = b.add_task(30);
  (void)b.add_edge(a, c, 5);
  (void)b.add_edge(c, d, 6);
  return b.build();
}

TEST(TaskGraphBuilder, BasicConstruction) {
  const TaskGraph g = chain3();
  EXPECT_EQ(g.num_tasks(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.task_cost(0), 10);
  EXPECT_DOUBLE_EQ(g.edge_cost(0), 5);
  EXPECT_EQ(g.edge_src(1), 1);
  EXPECT_EQ(g.edge_dst(1), 2);
}

TEST(TaskGraphBuilder, DefaultNamesArePaperStyle) {
  const TaskGraph g = chain3();
  EXPECT_EQ(g.task_name(0), "T1");
  EXPECT_EQ(g.task_name(2), "T3");
}

TEST(TaskGraphBuilder, RejectsSelfLoop) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  EXPECT_THROW((void)b.add_edge(a, a, 1), PreconditionError);
}

TEST(TaskGraphBuilder, RejectsDuplicateEdge) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  const TaskId c = b.add_task(1);
  (void)b.add_edge(a, c, 1);
  EXPECT_THROW((void)b.add_edge(a, c, 2), PreconditionError);

  // A duplicate separated by another edge is caught too; the same
  // destination from a different source is a distinct edge.
  const TaskId d = b.add_task(1);
  EXPECT_NO_THROW((void)b.add_edge(d, c, 1));
  EXPECT_THROW((void)b.add_edge(a, c, 3), PreconditionError);
  EXPECT_NO_THROW((void)b.add_edge(a, d, 1));
  const TaskGraph g = b.build();
  ASSERT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.find_edge(a, c), 0);
  EXPECT_EQ(g.find_edge(d, c), 1);
  EXPECT_EQ(g.find_edge(a, d), 2);
  EXPECT_EQ(std::vector<EdgeId>(g.out_edges(a).begin(), g.out_edges(a).end()),
            (std::vector<EdgeId>{0, 2}));
}

TEST(TaskGraphBuilder, RejectsUnknownEndpointsAndNegativeCosts) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  EXPECT_THROW((void)b.add_edge(a, 5, 1), PreconditionError);
  EXPECT_THROW((void)b.add_edge(7, a, 1), PreconditionError);
  EXPECT_THROW((void)b.add_task(-1), PreconditionError);
  const TaskId c = b.add_task(1);
  EXPECT_THROW((void)b.add_edge(a, c, -3), PreconditionError);
}

TEST(TaskGraphBuilder, RejectsNonFiniteCosts) {
  TaskGraphBuilder b;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)b.add_task(inf), PreconditionError);
  EXPECT_THROW((void)b.add_task(-inf), PreconditionError);
  EXPECT_THROW((void)b.add_task(nan), PreconditionError);
  const TaskId a = b.add_task(std::numeric_limits<double>::max());
  const TaskId c = b.add_task(1);
  EXPECT_THROW((void)b.add_edge(a, c, inf), PreconditionError);
  EXPECT_THROW((void)b.add_edge(a, c, nan), PreconditionError);
  try {
    (void)b.add_task(inf);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
        << e.what();
  }
  // Nothing was added by the rejected calls.
  EXPECT_EQ(b.add_edge(a, c, 2), 0);
}

TEST(TaskGraphBuilder, DetectsCycle) {
  TaskGraphBuilder b;
  const TaskId a = b.add_task(1);
  const TaskId c = b.add_task(1);
  const TaskId d = b.add_task(1);
  (void)b.add_edge(a, c, 1);
  (void)b.add_edge(c, d, 1);
  (void)b.add_edge(d, a, 1);
  EXPECT_THROW((void)b.build(), PreconditionError);
}

TEST(TaskGraphBuilder, RejectsEmptyGraph) {
  TaskGraphBuilder b;
  EXPECT_THROW((void)b.build(), PreconditionError);
}

TEST(TaskGraph, EntryAndExitTasks) {
  const TaskGraph g = paper_task_graph();
  ASSERT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.entry_tasks()[0], pf::T1);
  // T5 is a sink (OB task) and T9 is the CP exit.
  ASSERT_EQ(g.exit_tasks().size(), 2u);
  EXPECT_EQ(g.exit_tasks()[0], pf::T5);
  EXPECT_EQ(g.exit_tasks()[1], pf::T9);
}

TEST(TaskGraph, DegreesAndFindEdge) {
  const TaskGraph g = paper_task_graph();
  EXPECT_EQ(g.out_degree(pf::T1), 5);
  EXPECT_EQ(g.in_degree(pf::T9), 3);
  const EdgeId e = g.find_edge(pf::T1, pf::T7);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_DOUBLE_EQ(g.edge_cost(e), 100);
  EXPECT_EQ(g.find_edge(pf::T5, pf::T9), kInvalidEdge);
}

TEST(TaskGraph, TopologicalOrderIsValid) {
  const TaskGraph g = paper_task_graph();
  EXPECT_TRUE(is_topological_order(g, g.topological_order()));
}

TEST(TaskGraph, TotalsAndGranularity) {
  const TaskGraph g = chain3();
  EXPECT_DOUBLE_EQ(g.total_exec_cost(), 60);
  EXPECT_DOUBLE_EQ(g.total_comm_cost(), 11);
  EXPECT_DOUBLE_EQ(g.average_exec_cost(), 20);
  EXPECT_DOUBLE_EQ(g.average_comm_cost(), 5.5);
  EXPECT_NEAR(g.granularity(), 20 / 5.5, 1e-12);
}

TEST(TaskGraph, GranularityWithoutEdges) {
  TaskGraphBuilder b;
  (void)b.add_task(5);
  const TaskGraph g = b.build();
  EXPECT_EQ(g.granularity(), kInfiniteTime);
}

TEST(TaskGraph, WeakConnectivity) {
  EXPECT_TRUE(paper_task_graph().is_weakly_connected());
  TaskGraphBuilder b;
  (void)b.add_task(1);
  (void)b.add_task(1);
  EXPECT_FALSE(b.build().is_weakly_connected());
}

TEST(TaskGraph, IdRangeChecks) {
  const TaskGraph g = chain3();
  EXPECT_THROW((void)g.task_cost(99), PreconditionError);
  EXPECT_THROW((void)g.edge_cost(-1), PreconditionError);
  EXPECT_THROW((void)g.in_edges(17), PreconditionError);
}

// --- traversal ---------------------------------------------------------------

TEST(Traversal, AncestorMask) {
  const TaskGraph g = paper_task_graph();
  const auto mask = ancestor_mask(g, pf::T9);
  // Ancestors of T9: everything except T5 and T9 itself.
  EXPECT_TRUE(mask[pf::T1]);
  EXPECT_TRUE(mask[pf::T8]);
  EXPECT_TRUE(mask[pf::T3]);
  EXPECT_FALSE(mask[pf::T5]);
  EXPECT_FALSE(mask[pf::T9]);
}

TEST(Traversal, TopologicalOrderChecker) {
  const TaskGraph g = chain3();
  EXPECT_TRUE(is_topological_order(g, {0, 1, 2}));
  EXPECT_FALSE(is_topological_order(g, {1, 0, 2}));  // violates 0->1
  EXPECT_FALSE(is_topological_order(g, {0, 1}));     // missing task
  EXPECT_FALSE(is_topological_order(g, {0, 1, 1})); // duplicate
}

TEST(Traversal, GraphDepth) {
  EXPECT_EQ(graph_depth(chain3()), 3);
  // Paper graph: T1 -> T2 -> T7 -> T9 and T1 -> {T3,T4} -> T8 -> T9 are
  // 4-hop chains.
  EXPECT_EQ(graph_depth(paper_task_graph()), 4);
}

}  // namespace
}  // namespace bsa::graph
