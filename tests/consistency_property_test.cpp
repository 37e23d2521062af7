#include <gtest/gtest.h>

#include <tuple>

#include "baselines/dls.hpp"
#include "bsa_oracle.hpp"
#include "common/rng.hpp"
#include "core/bsa.hpp"
#include "sched/event_sim.hpp"
#include "sched/metrics.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa {
namespace {

/// Cross-module consistency properties that must hold for the output of
/// *every* scheduler in the library:
///  * the schedule validates;
///  * after replay normalisation, the independent event simulator
///    reproduces the recorded times exactly;
///  * order-preserving re-timing of a replayed schedule is a fixed point
///    (no time changes);
///  * the makespan respects the fastest-chain lower bound.

enum class Which : int { kBsa = 0, kDls, kEft, kMh, kCount };

sched::Schedule run(Which which, const graph::TaskGraph& g,
                    const net::Topology& topo,
                    const net::HeterogeneousCostModel& cm,
                    std::uint64_t seed) {
  switch (which) {
    case Which::kBsa: {
      core::BsaOptions opt;
      opt.seed = seed;
      return core::schedule_bsa(g, topo, cm, opt).schedule;
    }
    case Which::kDls:
      return baselines::schedule_dls(g, topo, cm).schedule;
    case Which::kEft:
      return sched::schedule_eft_oblivious(g, topo, cm).schedule;
    default:
      return sched::schedule_mh(g, topo, cm).schedule;
  }
}

class SchedulerConsistency
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(SchedulerConsistency, AllInvariantsHold) {
  const auto [which_int, granularity, seed] = GetParam();
  workloads::RandomDagParams params;
  params.num_tasks = 45;
  params.granularity = granularity;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = net::Topology::random(10, 2, 6, seed);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 30, 1, 30, derive_seed(seed, 50));

  sched::Schedule s =
      run(static_cast<Which>(which_int), g, topo, cm, seed);

  // 1. Validity.
  const auto report = sched::validate(s, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
  // 2. Lower bound.
  EXPECT_GE(s.makespan(), sched::schedule_length_lower_bound(g, cm));

  // 3. Replay + simulation agreement.
  (void)testing::replay_retime(s, cm);
  const auto sim = sched::simulate_execution(s, cm);
  ASSERT_TRUE(sim.completed) << sim.error;
  EXPECT_TRUE(sched::simulation_matches(s, sim));

  // 4. Re-timing the replayed schedule is a fixed point.
  std::vector<Time> starts(static_cast<std::size_t>(g.num_tasks()));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    starts[static_cast<std::size_t>(t)] = s.start_of(t);
  }
  Time mk = 0;
  ASSERT_TRUE(testing::try_retime(s, cm, &mk));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_NEAR(s.start_of(t), starts[static_cast<std::size_t>(t)], 1e-9)
        << "task " << t << " moved under retime after replay";
  }
  EXPECT_NEAR(mk, sim.makespan, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerConsistency,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(Which::kCount)),
        ::testing::Values(0.1, 1.0, 10.0), ::testing::Values(3u, 4u)));

/// Guarded BSA migrations never increase the schedule length: the
/// recorded makespan-after sequence is non-increasing.
TEST(BsaTraceInvariants, GuardedMakespanMonotone) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    workloads::RandomDagParams params;
    params.num_tasks = 60;
    params.granularity = 0.5;
    params.seed = seed;
    const auto g = workloads::random_layered_dag(params);
    const auto topo = net::Topology::ring(8);
    const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
        g, topo, 1, 30, 1, 30, derive_seed(seed, 51));
    const auto result = core::schedule_bsa(g, topo, cm);
    Time previous = result.trace.initial_serial_length;
    for (const auto& m : result.trace.migrations) {
      EXPECT_LE(m.makespan_after, previous)
          << "migration of task " << m.task << " grew the schedule";
      previous = m.makespan_after;
    }
    EXPECT_DOUBLE_EQ(result.schedule_length(), previous);
  }
}

/// The guarded final schedule is never longer than the serial start.
TEST(BsaTraceInvariants, NeverWorseThanSerialization) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    workloads::RandomDagParams params;
    params.num_tasks = 50;
    params.granularity = 0.1;  // most adversarial regime
    params.seed = seed;
    const auto g = workloads::random_layered_dag(params);
    const auto topo = net::Topology::ring(8);
    const auto cm = net::HeterogeneousCostModel::uniform(
        g, topo, 1, 50, 1, 50, derive_seed(seed, 52));
    const auto result = core::schedule_bsa(g, topo, cm);
    EXPECT_LE(result.schedule_length(), result.trace.initial_serial_length);
  }
}

}  // namespace
}  // namespace bsa
