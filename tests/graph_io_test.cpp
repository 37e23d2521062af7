#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/check.hpp"
#include "graph/graph_io.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "paper_fixture.hpp"

namespace bsa::graph {
namespace {

using bsa::testing::paper_task_graph;

TEST(GraphIo, RoundTripPreservesStructure) {
  const TaskGraph g = paper_task_graph();
  const TaskGraph h = from_text(to_text(g));
  ASSERT_EQ(h.num_tasks(), g.num_tasks());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(h.task_cost(t), g.task_cost(t));
    EXPECT_EQ(h.task_name(t), g.task_name(t));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge_src(e), g.edge_src(e));
    EXPECT_EQ(h.edge_dst(e), g.edge_dst(e));
    EXPECT_DOUBLE_EQ(h.edge_cost(e), g.edge_cost(e));
  }
}

TEST(GraphIo, ParsesCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "task 10 alpha\n"
      "task 20\n"
      "edge 0 1 5\n";
  const TaskGraph g = from_text(text);
  EXPECT_EQ(g.num_tasks(), 2);
  EXPECT_EQ(g.task_name(0), "alpha");
  EXPECT_EQ(g.task_name(1), "T2");  // default name
  EXPECT_DOUBLE_EQ(g.edge_cost(0), 5);
}

TEST(GraphIo, RejectsMalformedInput) {
  EXPECT_THROW((void)from_text("bogus 1 2\n"), PreconditionError);
  EXPECT_THROW((void)from_text("task\n"), PreconditionError);
  EXPECT_THROW((void)from_text("task 5\nedge 0\n"), PreconditionError);
  EXPECT_THROW((void)from_text("task 5\nedge 0 7 1\n"), PreconditionError);
  EXPECT_THROW((void)from_text(""), PreconditionError);  // empty graph
}

TEST(GraphIo, CostsThatOverflowOnceScaledAreRejectedByTheCostModel) {
  // Every cost in the file is finite, but 1e308 times a heterogeneity
  // factor of up to 50 is not. The cost model must say which cost.
  const TaskGraph g = from_text(
      "task 1e308 a\ntask 20 b\ntask 5 c\nedge 0 1 1e308\nedge 0 2 4\n");
  const auto topo = net::Topology::ring(8);
  try {
    (void)net::HeterogeneousCostModel::uniform_processor_speeds(g, topo, 1, 50,
                                                                1, 50, 1);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cost 1e+308"), std::string::npos) << msg;
  }
  // Out of the double range: malformed, not infinite.
  EXPECT_THROW((void)from_text("task 1e309\n"), PreconditionError);
}

TEST(GraphIo, AFileWhoseTimeHorizonOverflowsIsRejectedByTheCostModel) {
  // With factor 1 every cost is finite, but a path through the 1e308 task
  // and the 1e308 message is not (it used to surface as a processor id
  // of -1 in BSA and as zero-length tasks in the list schedulers).
  const TaskGraph g = from_text(
      "task 1e308 a\ntask 20 b\ntask 5 c\nedge 0 1 1e308\nedge 0 2 4\n");
  const auto topo = net::Topology::ring(8);
  try {
    (void)net::HeterogeneousCostModel::uniform_processor_speeds(g, topo, 1, 1,
                                                                1, 1, 1);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("time horizon is not finite"), std::string::npos)
        << msg;
  }
}

TEST(GraphIo, RejectsCycleInFile) {
  const std::string text =
      "task 1\ntask 1\nedge 0 1 1\nedge 1 0 1\n";
  EXPECT_THROW((void)from_text(text), PreconditionError);
}

TEST(GraphIo, DotContainsNodesAndEdges) {
  const TaskGraph g = paper_task_graph();
  std::ostringstream os;
  write_dot(os, g, "paper");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph \"paper\""), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"T1"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n6 [label=\"100\"]"), std::string::npos);
  EXPECT_NE(dot.find("n7 -> n8 [label=\"50\"]"), std::string::npos);
  // One line per node and edge.
  EXPECT_NE(dot.find("n8 [label=\"T9"), std::string::npos);
}

}  // namespace
}  // namespace bsa::graph
