#include <gtest/gtest.h>

#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "sched/scheduler.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::exp {
namespace {

TEST(Experiment, TopologyFactory) {
  EXPECT_EQ(make_topology("ring", 16, 0).num_links(), 16);
  EXPECT_EQ(make_topology("hypercube", 16, 0).num_links(), 32);
  EXPECT_EQ(make_topology("clique", 16, 0).num_links(), 120);
  const auto r = make_topology("random", 16, 5);
  EXPECT_EQ(r.num_processors(), 16);
  EXPECT_THROW((void)make_topology("hypercube", 12, 0), PreconditionError);
  EXPECT_THROW((void)make_topology("grid", 16, 0), PreconditionError);
  EXPECT_EQ(paper_topologies().size(), 4u);
  EXPECT_EQ(make_topology("linear", 5, 0).num_links(), 4);
  EXPECT_EQ(make_topology("star", 5, 0).num_links(), 4);
  EXPECT_EQ(topology_kinds().size(), 7u);
  for (const std::string& kind : topology_kinds()) {
    EXPECT_EQ(make_topology(kind, 16, 3).num_processors(), 16) << kind;
  }
}

TEST(Experiment, ImpossibleTopologiesThrowBeforeBuilding) {
  // Past 2^30 a shift-based dimension search overflows and never ends;
  // each of these must fail at once.
  for (const int procs : {2147483647, (1 << 30) + 1, 1 << 30, 12, 1, 0, -4}) {
    EXPECT_THROW(check_topology("hypercube", procs), PreconditionError)
        << procs;
    EXPECT_THROW((void)make_topology("hypercube", procs, 0),
                 PreconditionError)
        << procs;
  }
  EXPECT_NO_THROW(check_topology("hypercube", 1 << 20));
  for (const std::string& kind : topology_kinds()) {
    EXPECT_THROW(check_topology(kind, 1), PreconditionError) << kind;
  }
  EXPECT_THROW(check_topology("random", 2), PreconditionError);
  EXPECT_NO_THROW(check_topology("random", 3));
  EXPECT_NO_THROW(check_topology("star", 2));
  try {
    check_topology("hypercube", 12);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("hypercube"), std::string::npos);
  }
  try {
    check_topology("torus", 16);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("torus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("linear"), std::string::npos) << msg;
  }
}

TEST(Experiment, RunAlgorithmProducesValidOutcomes) {
  workloads::RandomDagParams p;
  p.num_tasks = 30;
  p.seed = 2;
  const auto g = workloads::random_layered_dag(p);
  const auto topo = make_topology("hypercube", 8, 0);
  const auto cm =
      net::HeterogeneousCostModel::uniform(g, topo, 1, 50, 1, 50, 9);
  for (const std::string& spec :
       sched::SchedulerRegistry::global().names()) {
    const auto outcome = run_algorithm(spec, g, topo, cm, 1);
    EXPECT_TRUE(outcome.valid) << spec;
    EXPECT_GT(outcome.schedule_length, 0) << spec;
    EXPECT_GE(outcome.wall_ms, 0) << spec;
  }
}

TEST(Experiment, RunAlgorithmRejectsUnknownSpecs) {
  workloads::RandomDagParams p;
  p.num_tasks = 5;
  p.seed = 2;
  const auto g = workloads::random_layered_dag(p);
  const auto topo = make_topology("ring", 4, 0);
  const auto cm =
      net::HeterogeneousCostModel::uniform(g, topo, 1, 2, 1, 2, 9);
  EXPECT_THROW((void)run_algorithm("hneft", g, topo, cm, 1),
               PreconditionError);
}

TEST(Experiment, CellMean) {
  CellMean m;
  EXPECT_DOUBLE_EQ(m.mean(), 0);
  m.add(10);
  m.add(20);
  EXPECT_DOUBLE_EQ(m.mean(), 15);
  EXPECT_EQ(m.count, 2);
}

TEST(Experiment, PaperParameterLists) {
  EXPECT_EQ(paper_granularities().size(), 3u);
  const auto sizes = paper_sizes();
  EXPECT_GE(sizes.size(), 5u);
  EXPECT_EQ(sizes.front(), 50);
  EXPECT_EQ(sizes.back(), 500);
}

}  // namespace
}  // namespace bsa::exp
