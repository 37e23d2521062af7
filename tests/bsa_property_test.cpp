#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/bsa.hpp"
#include "exp/experiment.hpp"
#include "sched/event_sim.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::core {
namespace {

/// Property sweep over the experimental parameter space of the paper
/// (scaled down for test time): every BSA run must produce a complete,
/// valid schedule whose times agree with independent event simulation and
/// respect the fastest-chain lower bound.
class BsaProperty
    : public ::testing::TestWithParam<
          std::tuple<int, std::string, double, int, std::uint64_t>> {};

TEST_P(BsaProperty, ValidOnRandomInstances) {
  const auto [n, topo_kind, granularity, het_hi, seed] = GetParam();

  workloads::RandomDagParams params;
  params.num_tasks = n;
  params.granularity = granularity;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology(topo_kind, 8, seed);
  const auto cm =
      net::HeterogeneousCostModel::uniform(g, topo, 1, het_hi, 1, het_hi,
                                           derive_seed(seed, 99));

  BsaOptions opt;
  opt.seed = seed;
  const auto result = schedule_bsa(g, topo, cm, opt);

  ASSERT_TRUE(result.schedule.all_placed());
  const auto report = sched::validate(result.schedule, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();

  const auto sim = sched::simulate_execution(result.schedule, cm);
  ASSERT_TRUE(sim.completed) << sim.error;
  EXPECT_TRUE(sched::simulation_matches(result.schedule, sim));

  EXPECT_GE(result.schedule_length(),
            sched::schedule_length_lower_bound(g, cm));
  // The serialization order must contain all tasks.
  EXPECT_EQ(result.trace.serialization.order.size(),
            static_cast<std::size_t>(g.num_tasks()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BsaProperty,
    ::testing::Combine(::testing::Values(24, 60),
                       ::testing::Values("ring", "hypercube", "clique",
                                         "random"),
                       ::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(10, 50),
                       ::testing::Values(1u, 2u)));

/// The ablation options must preserve validity on the same sweep (smaller
/// instance set).
class BsaOptionProperty
    : public ::testing::TestWithParam<
          std::tuple<bool, bool, bool, GateRule, std::uint64_t>> {};

TEST_P(BsaOptionProperty, VariantsValidOnRandomInstances) {
  const auto [insertion, prune, vip, gate, seed] = GetParam();
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = 0.5;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = net::Topology::random(8, 2, 4, seed);
  const auto cm = net::HeterogeneousCostModel::uniform(
      g, topo, 1, 20, 1, 20, derive_seed(seed, 7));

  BsaOptions opt;
  opt.seed = seed;
  opt.insertion_slots = insertion;
  opt.prune_route_cycles = prune;
  opt.vip_rule = vip;
  opt.gate = gate;
  const auto result = schedule_bsa(g, topo, cm, opt);
  const auto report = sched::validate(result.schedule, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
  const auto sim = sched::simulate_execution(result.schedule, cm);
  ASSERT_TRUE(sim.completed) << sim.error;
}

INSTANTIATE_TEST_SUITE_P(
    Options, BsaOptionProperty,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(GateRule::kPaper,
                                         GateRule::kAlwaysConsider),
                       ::testing::Values(11u, 12u)));

/// Determinism across repeated runs for a handful of configurations.
class BsaDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BsaDeterminism, RepeatedRunsIdentical) {
  const std::uint64_t seed = GetParam();
  workloads::RandomDagParams params;
  params.num_tasks = 50;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = net::Topology::hypercube(3);
  const auto cm =
      net::HeterogeneousCostModel::uniform(g, topo, 1, 50, 1, 50, seed);
  BsaOptions opt;
  opt.seed = seed;
  const auto a = schedule_bsa(g, topo, cm, opt);
  const auto b = schedule_bsa(g, topo, cm, opt);
  EXPECT_DOUBLE_EQ(a.schedule_length(), b.schedule_length());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(a.schedule.proc_of(t), b.schedule.proc_of(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BsaDeterminism,
                         ::testing::Values(3u, 17u, 23u));

}  // namespace
}  // namespace bsa::core
