#include <gtest/gtest.h>

#include "baselines/dls.hpp"
#include "bsa_oracle.hpp"
#include "core/bsa.hpp"
#include "exp/experiment.hpp"
#include "graph/graph_io.hpp"
#include "sched/event_sim.hpp"
#include "sched/gantt.hpp"
#include "sched/metrics.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/retime.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/regular.hpp"

namespace bsa {
namespace {

/// End-to-end flows across modules: generate -> serialize to text ->
/// parse -> schedule with all algorithms -> validate/cross-check.
TEST(Integration, RoundTripThenScheduleAllAlgorithms) {
  workloads::CostParams cp;
  cp.granularity = 1.0;
  cp.seed = 21;
  const auto original = workloads::gaussian_elimination(10, cp);
  const auto g = graph::from_text(graph::to_text(original));
  const auto topo = net::Topology::hypercube(3);
  const auto cm =
      net::HeterogeneousCostModel::uniform(g, topo, 1, 50, 1, 50, 22);

  const auto bsa_result = core::schedule_bsa(g, topo, cm);
  const auto dls_result = baselines::schedule_dls(g, topo, cm);
  const auto eft_result = sched::schedule_eft_oblivious(g, topo, cm);

  for (const sched::Schedule* s :
       {&bsa_result.schedule, &dls_result.schedule, &eft_result.schedule}) {
    const auto report = sched::validate(*s, cm);
    ASSERT_TRUE(report.ok()) << report.to_string();
    EXPECT_GE(s->makespan(), sched::schedule_length_lower_bound(g, cm));
  }
  // Gantt/listing render without error for all of them.
  EXPECT_FALSE(sched::gantt_to_string(bsa_result.schedule).empty());
  EXPECT_FALSE(sched::listing_to_string(dls_result.schedule).empty());
}

/// The headline claim of the paper, shrunk to test size: on a
/// low-connectivity topology with fine-grained communication, BSA's
/// contention-aware incremental routing should on average beat DLS.
/// Averaged over several seeds to keep the test robust rather than
/// asserting any single-instance win.
TEST(Integration, BsaBeatsDlsOnAverageOnFineGrainedRing) {
  double bsa_sum = 0;
  double dls_sum = 0;
  const int kSeeds = 6;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    workloads::RandomDagParams p;
    p.num_tasks = 60;
    p.granularity = 0.1;  // fine grained: contention dominates
    p.seed = seed;
    const auto g = workloads::random_layered_dag(p);
    const auto topo = net::Topology::ring(8);
    const auto cm = net::HeterogeneousCostModel::uniform(
        g, topo, 1, 50, 1, 50, derive_seed(seed, 77));
    bsa_sum += core::schedule_bsa(g, topo, cm).schedule_length();
    dls_sum += baselines::schedule_dls(g, topo, cm).schedule.makespan();
  }
  EXPECT_LT(bsa_sum, dls_sum)
      << "BSA mean " << bsa_sum / kSeeds << " vs DLS mean "
      << dls_sum / kSeeds;
}

/// Connectivity claim: both algorithms should produce shorter schedules
/// on a clique than on a ring (same instances).
TEST(Integration, HigherConnectivityShortensSchedules) {
  double ring_sum = 0;
  double clique_sum = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    workloads::RandomDagParams p;
    p.num_tasks = 50;
    p.granularity = 0.5;
    p.seed = seed;
    const auto g = workloads::random_layered_dag(p);
    const auto ring = net::Topology::ring(8);
    const auto clique = net::Topology::clique(8);
    // Note: the same uniform factors cannot be reused across topologies
    // with different link counts; use exec-focused comparison with
    // homogeneous links.
    const auto cm_ring = net::HeterogeneousCostModel::uniform(
        g, ring, 1, 50, 1, 1, derive_seed(seed, 5));
    const auto cm_clique = net::HeterogeneousCostModel::uniform(
        g, clique, 1, 50, 1, 1, derive_seed(seed, 5));
    ring_sum += core::schedule_bsa(g, ring, cm_ring).schedule_length();
    clique_sum += core::schedule_bsa(g, clique, cm_clique).schedule_length();
  }
  EXPECT_LE(clique_sum, ring_sum * 1.05);
}

/// Granularity claim: schedules get sharply longer as granularity drops.
TEST(Integration, FineGranularityInflatesScheduleLength) {
  workloads::CostParams coarse;
  coarse.granularity = 10.0;
  coarse.seed = 31;
  workloads::CostParams fine;
  fine.granularity = 0.1;
  fine.seed = 31;
  const auto g_coarse = workloads::laplace(8, coarse);
  const auto g_fine = workloads::laplace(8, fine);
  const auto topo = net::Topology::ring(8);
  const auto cm_coarse = net::HeterogeneousCostModel::uniform(
      g_coarse, topo, 1, 10, 1, 10, 3);
  const auto cm_fine =
      net::HeterogeneousCostModel::uniform(g_fine, topo, 1, 10, 1, 10, 3);
  const auto sl_coarse =
      core::schedule_bsa(g_coarse, topo, cm_coarse).schedule_length();
  const auto sl_fine =
      core::schedule_bsa(g_fine, topo, cm_fine).schedule_length();
  EXPECT_GT(sl_fine, sl_coarse);
}

/// All three algorithms agree with the independent event simulator after
/// a replay normalisation (BSA natively; DLS/EFT after replay, since
/// their append placement can leave forced slack).
TEST(Integration, ReplayNormalisationIsUniversal) {
  workloads::CostParams cp;
  cp.seed = 41;
  const auto g = workloads::fft(16, cp);
  const auto topo = net::Topology::hypercube(4);
  const auto cm =
      net::HeterogeneousCostModel::uniform(g, topo, 1, 20, 1, 20, 42);
  auto schedules = {
      core::schedule_bsa(g, topo, cm).schedule,
      baselines::schedule_dls(g, topo, cm).schedule,
      sched::schedule_eft_oblivious(g, topo, cm).schedule,
  };
  for (sched::Schedule s : schedules) {
    (void)testing::replay_retime(s, cm);
    const auto sim = sched::simulate_execution(s, cm);
    ASSERT_TRUE(sim.completed) << sim.error;
    EXPECT_TRUE(sched::simulation_matches(s, sim));
    EXPECT_TRUE(sched::validate(s, cm).ok());
  }
}

}  // namespace
}  // namespace bsa
