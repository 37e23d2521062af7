#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "network/cost_model.hpp"
#include "paper_fixture.hpp"

namespace bsa::net {
namespace {

namespace pf = bsa::testing;

TEST(CostModel, Table1MatrixIsVerbatim) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  EXPECT_DOUBLE_EQ(cm.exec_cost(pf::T1, 0), 39);
  EXPECT_DOUBLE_EQ(cm.exec_cost(pf::T1, 1), 7);
  EXPECT_DOUBLE_EQ(cm.exec_cost(pf::T1, 2), 2);
  EXPECT_DOUBLE_EQ(cm.exec_cost(pf::T5, 3), 12);
  EXPECT_DOUBLE_EQ(cm.exec_cost(pf::T9, 0), 8);
  EXPECT_DOUBLE_EQ(cm.exec_cost(pf::T8, 1), 18);
}

TEST(CostModel, HomogeneousLinksUseNominalCosts) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  const EdgeId e17 = g.find_edge(pf::T1, pf::T7);
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    EXPECT_DOUBLE_EQ(cm.comm_cost(e17, l), 100);
  }
}

TEST(CostModel, UniformFactorsWithinRange) {
  const auto g = pf::paper_task_graph();
  const auto topo = Topology::hypercube(4);
  const auto cm =
      HeterogeneousCostModel::uniform(g, topo, 1, 50, 1, 50, /*seed=*/11);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      const Cost c = cm.exec_cost(t, p);
      EXPECT_GE(c, g.task_cost(t) * 1);
      EXPECT_LE(c, g.task_cost(t) * 50);
      // Factor must be integral.
      const double factor = c / g.task_cost(t);
      EXPECT_DOUBLE_EQ(factor, std::floor(factor));
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      const Cost c = cm.comm_cost(e, l);
      EXPECT_GE(c, g.edge_cost(e) * 1);
      EXPECT_LE(c, g.edge_cost(e) * 50);
    }
  }
}

TEST(CostModel, UniformIsSeedDeterministic) {
  const auto g = pf::paper_task_graph();
  const auto topo = Topology::ring(8);
  const auto a = HeterogeneousCostModel::uniform(g, topo, 1, 50, 1, 50, 5);
  const auto b = HeterogeneousCostModel::uniform(g, topo, 1, 50, 1, 50, 5);
  const auto c = HeterogeneousCostModel::uniform(g, topo, 1, 50, 1, 50, 6);
  bool any_difference = false;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      EXPECT_DOUBLE_EQ(a.exec_cost(t, p), b.exec_cost(t, p));
      if (a.exec_cost(t, p) != c.exec_cost(t, p)) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(CostModel, ExecAndCommStreamsIndependent) {
  const auto g = pf::paper_task_graph();
  const auto topo = Topology::ring(4);
  // Same seed, different ranges must not alias streams: exec factors in
  // [1,1] while comm varies.
  const auto cm = HeterogeneousCostModel::uniform(g, topo, 1, 1, 2, 9, 3);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(cm.exec_cost(t, 0), g.task_cost(t));
  }
  const EdgeId e = 0;
  bool varied = false;
  Cost first = cm.comm_cost(e, 0);
  for (LinkId l = 1; l < topo.num_links(); ++l) {
    if (cm.comm_cost(e, l) != first) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(CostModel, HomogeneousIsNominal) {
  const auto g = pf::paper_task_graph();
  const auto topo = Topology::ring(4);
  const auto cm = HeterogeneousCostModel::homogeneous(g, topo);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    for (ProcId p = 0; p < 4; ++p) {
      EXPECT_DOUBLE_EQ(cm.exec_cost(t, p), g.task_cost(t));
    }
  }
  EXPECT_DOUBLE_EQ(cm.min_exec_cost(pf::T5), 50);
  EXPECT_DOUBLE_EQ(cm.median_exec_cost(pf::T5), 50);
}

TEST(CostModel, MinAndMedianFromTable1) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  // T1 row: {39, 7, 2, 6} -> min 2, median (6+7)/2 = 6.5.
  EXPECT_DOUBLE_EQ(cm.min_exec_cost(pf::T1), 2);
  EXPECT_DOUBLE_EQ(cm.median_exec_cost(pf::T1), 6.5);
  // T9 row: {8, 16, 15, 20} -> min 8, median 15.5.
  EXPECT_DOUBLE_EQ(cm.min_exec_cost(pf::T9), 8);
  EXPECT_DOUBLE_EQ(cm.median_exec_cost(pf::T9), 15.5);
}

TEST(CostModel, ExecCostsOnMatchesExecCost) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  for (ProcId p = 0; p < 4; ++p) {
    const auto col = cm.exec_costs_on(p);
    ASSERT_EQ(col.size(), 9u);
    for (TaskId t = 0; t < 9; ++t) {
      EXPECT_DOUBLE_EQ(col[static_cast<std::size_t>(t)], cm.exec_cost(t, p));
    }
  }
}

TEST(CostModel, Validation) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  EXPECT_THROW((void)HeterogeneousCostModel::uniform(g, topo, 0, 5, 1, 1, 0),
               PreconditionError);
  EXPECT_THROW((void)HeterogeneousCostModel::uniform(g, topo, 5, 1, 1, 1, 0),
               PreconditionError);
  std::vector<Cost> wrong_size(10, 1);
  EXPECT_THROW(
      (void)HeterogeneousCostModel::from_exec_matrix(g, topo, wrong_size),
      PreconditionError);
  const auto cm = pf::paper_cost_model(g, topo);
  EXPECT_THROW((void)cm.exec_cost(99, 0), PreconditionError);
  EXPECT_THROW((void)cm.comm_cost(0, 99), PreconditionError);
}

TEST(CostModel, RejectsCostsThatOverflowOnceScaled) {
  // Finite nominal costs whose product with the largest factor is not:
  // rejected when the model is built, naming the task or edge, instead
  // of surfacing as an infinite cost deep inside a scheduler.
  graph::TaskGraphBuilder b;
  const TaskId big = b.add_task(1e308, "a");
  const TaskId t1 = b.add_task(20, "b");
  const TaskId t2 = b.add_task(5, "c");
  (void)b.add_edge(big, t1, 4);
  (void)b.add_edge(big, t2, 4);
  const auto heavy_task = b.build();
  const auto topo = Topology::ring(4);
  for (const bool per_pair : {false, true}) {
    try {
      (void)(per_pair ? HeterogeneousCostModel::uniform(heavy_task, topo, 1,
                                                        50, 1, 50, 7)
                      : HeterogeneousCostModel::uniform_processor_speeds(
                            heavy_task, topo, 1, 50, 1, 50, 7));
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("task 0"), std::string::npos) << msg;
      EXPECT_NE(msg.find("1e+308"), std::string::npos) << msg;
    }
  }
  // Factor 1 keeps the same costs finite.
  EXPECT_NO_THROW(
      (void)HeterogeneousCostModel::uniform(heavy_task, topo, 1, 1, 1, 1, 7));

  graph::TaskGraphBuilder eb;
  const TaskId u = eb.add_task(1);
  const TaskId v = eb.add_task(1);
  (void)eb.add_edge(u, v, 1e308);
  const auto heavy_edge = eb.build();
  try {
    (void)HeterogeneousCostModel::uniform_processor_speeds(heavy_edge, topo,
                                                           1, 1, 1, 2, 7);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("edge 0"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)HeterogeneousCostModel::from_exec_matrix(
                   heavy_edge, topo, std::vector<Cost>(8, 1), 2),
               PreconditionError);

  // Matrix entries and the link factor must be finite themselves.
  const auto g = pf::paper_task_graph();
  const auto ring = pf::paper_ring();
  std::vector<Cost> matrix(
      static_cast<std::size_t>(g.num_tasks() * ring.num_processors()), 1);
  EXPECT_NO_THROW(
      (void)HeterogeneousCostModel::from_exec_matrix(g, ring, matrix));
  EXPECT_THROW((void)HeterogeneousCostModel::from_exec_matrix(
                   g, ring, matrix, std::numeric_limits<Cost>::infinity()),
               PreconditionError);
  matrix[5] = std::numeric_limits<Cost>::infinity();
  EXPECT_THROW(
      (void)HeterogeneousCostModel::from_exec_matrix(g, ring, matrix),
      PreconditionError);
  matrix[5] = std::numeric_limits<Cost>::quiet_NaN();
  EXPECT_THROW(
      (void)HeterogeneousCostModel::from_exec_matrix(g, ring, matrix),
      PreconditionError);
}

TEST(CostModel, RejectsATimeHorizonThatOverflows) {
  // Every cost times its largest factor is finite, but the sums a
  // scheduler forms are not: 1e308 of execution plus a 1e308 message.
  graph::TaskGraphBuilder b;
  const TaskId big = b.add_task(1e308, "a");
  const TaskId t1 = b.add_task(20, "b");
  const TaskId t2 = b.add_task(5, "c");
  (void)b.add_edge(big, t1, 1e308);
  (void)b.add_edge(big, t2, 4);
  const auto g = b.build();
  const auto topo = Topology::ring(8);
  const auto expect_horizon_error = [](auto build) {
    try {
      (void)build();
      FAIL() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("time horizon"), std::string::npos)
          << e.what();
    }
  };
  expect_horizon_error([&] {
    return HeterogeneousCostModel::uniform_processor_speeds(g, topo, 1, 1, 1,
                                                            1, 1);
  });
  expect_horizon_error(
      [&] { return HeterogeneousCostModel::uniform(g, topo, 1, 1, 1, 1, 1); });
  expect_horizon_error([&] {
    return HeterogeneousCostModel::from_exec_matrix(
        g, topo, std::vector<Cost>(3 * 8, 1e308));
  });

  // The message never crosses a link of a one-processor topology, and
  // half the costs fit on any topology.
  EXPECT_NO_THROW((void)HeterogeneousCostModel::homogeneous(
      g, Topology::from_links(1, {})));
  graph::TaskGraphBuilder hb;
  const TaskId h0 = hb.add_task(4e307);
  (void)hb.add_edge(h0, hb.add_task(1), 1e307);
  EXPECT_NO_THROW(
      (void)HeterogeneousCostModel::homogeneous(hb.build(), Topology::ring(8)));
}

TEST(CostModel, ProcessorSpeedModeUniformPerProcessor) {
  const auto g = pf::paper_task_graph();
  const auto topo = Topology::ring(4);
  const auto cm = HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 50, 1, 50, 7);
  // Every task on one processor shares the same speed factor.
  for (ProcId p = 0; p < 4; ++p) {
    const Cost factor = cm.exec_cost(0, p) / g.task_cost(0);
    EXPECT_GE(factor, 1);
    EXPECT_LE(factor, 50);
    for (TaskId t = 1; t < g.num_tasks(); ++t) {
      EXPECT_DOUBLE_EQ(cm.exec_cost(t, p) / g.task_cost(t), factor);
    }
  }
  // Every message on one link shares the same factor.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const Cost factor = cm.comm_cost(0, l) / g.edge_cost(0);
    for (EdgeId e = 1; e < g.num_edges(); ++e) {
      EXPECT_DOUBLE_EQ(cm.comm_cost(e, l) / g.edge_cost(e), factor);
    }
  }
}

TEST(CostModel, ProcessorSpeedModeSeedDeterministic) {
  const auto g = pf::paper_task_graph();
  const auto topo = Topology::ring(4);
  const auto a = HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 50, 1, 50, 7);
  const auto b = HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 50, 1, 50, 7);
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(a.exec_cost(3, p), b.exec_cost(3, p));
  }
}

}  // namespace
}  // namespace bsa::net
