#include <gtest/gtest.h>

#include "bsa_oracle.hpp"
#include "common/check.hpp"
#include "core/bsa.hpp"
#include "network/routing.hpp"
#include "paper_fixture.hpp"
#include "sched/event_sim.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::core {
namespace {

namespace pf = bsa::testing;

/// All routes of a schedule must equal the static route prescribed for
/// their endpoint processors.
void expect_routes_static(const sched::Schedule& s,
                          const net::Topology& topo,
                          RouteDiscipline discipline) {
  const auto& g = s.task_graph();
  const net::RoutingTable table(topo);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& route = s.route_of(e);
    if (route.empty()) continue;
    const ProcId from = s.proc_of(g.edge_src(e));
    const ProcId to = s.proc_of(g.edge_dst(e));
    std::vector<LinkId> expect =
        discipline == RouteDiscipline::kEcube
            ? net::ecube_route(topo, from, to)
            : table.route(from, to);
    ASSERT_EQ(route.size(), expect.size()) << "message " << e;
    for (std::size_t k = 0; k < route.size(); ++k) {
      EXPECT_EQ(route[k].link, expect[k]) << "message " << e << " hop " << k;
    }
  }
}

TEST(StaticRouting, ShortestPathOnPaperExample) {
  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);
  BsaOptions opt;
  opt.routing = RouteDiscipline::kStaticShortestPath;
  const pf::MoveOracle oracle;  // checks every migration
  const auto result = schedule_bsa(g, topo, cm, opt);
  EXPECT_EQ(oracle.failure(), "");
  const auto report = sched::validate(result.schedule, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
  expect_routes_static(result.schedule, topo,
                       RouteDiscipline::kStaticShortestPath);
}

TEST(StaticRouting, EcubeOnHypercube) {
  workloads::RandomDagParams p;
  p.num_tasks = 40;
  p.granularity = 1.0;
  p.seed = 5;
  const auto g = workloads::random_layered_dag(p);
  const auto topo = net::Topology::hypercube(3);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 20, 1, 5, 6);
  BsaOptions opt;
  opt.routing = RouteDiscipline::kEcube;
  const auto result = schedule_bsa(g, topo, cm, opt);
  const auto report = sched::validate(result.schedule, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
  expect_routes_static(result.schedule, topo, RouteDiscipline::kEcube);
  const auto sim = sched::simulate_execution(result.schedule, cm);
  ASSERT_TRUE(sim.completed) << sim.error;
  EXPECT_TRUE(sched::simulation_matches(result.schedule, sim));
}

TEST(StaticRouting, RoutesAreSingleHopOnClique) {
  workloads::RandomDagParams p;
  p.num_tasks = 30;
  p.seed = 9;
  const auto g = workloads::random_layered_dag(p);
  const auto topo = net::Topology::clique(6);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 10, 1, 10, 2);
  BsaOptions opt;
  opt.routing = RouteDiscipline::kStaticShortestPath;
  const auto result = schedule_bsa(g, topo, cm, opt);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(result.schedule.route_of(e).size(), 1u);
  }
  EXPECT_TRUE(sched::validate(result.schedule, cm).ok());
}

class StaticRoutingProperty
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(StaticRoutingProperty, ValidAcrossGranularities) {
  const auto [granularity, seed] = GetParam();
  workloads::RandomDagParams p;
  p.num_tasks = 40;
  p.granularity = granularity;
  p.seed = seed;
  const auto g = workloads::random_layered_dag(p);
  const auto topo = net::Topology::hypercube(4);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 50, 1, 50, derive_seed(seed, 21));
  for (const auto discipline :
       {RouteDiscipline::kStaticShortestPath, RouteDiscipline::kEcube}) {
    BsaOptions opt;
    opt.seed = seed;
    opt.routing = discipline;
    const auto result = schedule_bsa(g, topo, cm, opt);
    const auto report = sched::validate(result.schedule, cm);
    ASSERT_TRUE(report.ok()) << report.to_string();
    expect_routes_static(result.schedule, topo, discipline);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticRoutingProperty,
    ::testing::Combine(::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(1u, 2u)));

TEST(StaticRouting, EcubeRejectsNonHypercube) {
  const auto g = pf::paper_task_graph();
  const auto topo = net::Topology::ring(6);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  BsaOptions opt;
  opt.routing = RouteDiscipline::kEcube;
  // A migration whose e-cube route needs a missing link throws; rings of
  // size != 2^d are not valid e-cube networks. (The algorithm may finish
  // without error when no migration needs an invalid route, so only
  // assert that *if* it throws, the error is the routing precondition.)
  try {
    const auto result = schedule_bsa(g, topo, cm, opt);
    EXPECT_TRUE(sched::validate(result.schedule, cm).ok());
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("hypercube"), std::string::npos);
  }
}

}  // namespace
}  // namespace bsa::core
