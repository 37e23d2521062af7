#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/schedule_io.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "workloads/workload_registry.hpp"

/// Cross-registry scheduler-conformance harness: every registered
/// scheduler spec (default and variant) x a sampled grid of workload
/// specs x topologies must
///  * produce a sched::validate()-clean complete schedule,
///  * round-trip to its canonical spec, with repeated resolves
///    bit-identical,
///  * be bit-identical under the sweep runtime at 1/2/8 threads,
/// and the SA refiner must be a monotone never-worse-than-init
/// refinement whose move sequence replays bit-identically by seed.
/// Nothing here is scheduler-specific: a newly registered algorithm is
/// covered automatically because the spec list starts from
/// SchedulerRegistry::global().names().

namespace bsa::sched {
namespace {

const SchedulerRegistry& reg() { return SchedulerRegistry::global(); }

/// Every registered default spec plus hand-picked non-default variants
/// (at least one per optioned algorithm, covering the sa: grammar).
std::vector<std::string> conformance_specs() {
  std::vector<std::string> specs = reg().names();
  specs.insert(specs.end(), {
                               "bsa:gate=always,route=static",
                               "bsa:policy=greedy,sweeps=2",
                               "dls:seed=7",
                               "sa:iters=0",
                               "sa:init=peft,iters=40,seed=3",
                               "sa:init=bsa,iters=25,temp0=0.2",
                           });
  return specs;
}

/// Sampled workload-spec grid: one irregular, one pinned-structure
/// variant, and three regular families with different shapes.
const std::vector<std::string> kWorkloads = {
    "random", "fft", "forkjoin:width=5", "stencil", "sp:seed=2",
};

const std::vector<std::string> kTopologies = {"ring", "hypercube"};

struct Instance {
  graph::TaskGraph g;
  net::Topology topo;
  net::HeterogeneousCostModel cm;
};

Instance make_instance(const std::string& workload,
                       const std::string& topo_kind, std::uint64_t seed) {
  graph::TaskGraph g = workloads::WorkloadRegistry::global()
                           .resolve(workload)
                           ->generate(/*target_tasks=*/22,
                                      /*granularity=*/1.0, seed);
  net::Topology topo = exp::make_topology(topo_kind, 8, seed);
  net::HeterogeneousCostModel cm =
      net::HeterogeneousCostModel::uniform_processor_speeds(
          g, topo, 1, 50, 1, 50, derive_seed(seed, 17));
  return {std::move(g), std::move(topo), std::move(cm)};
}

TEST(Conformance, EverySpecValidatesOnEveryWorkloadAndTopology) {
  for (const std::string& spec : conformance_specs()) {
    const std::unique_ptr<Scheduler> s = reg().resolve(spec);
    for (const std::string& workload : kWorkloads) {
      for (const std::string& topo_kind : kTopologies) {
        const Instance in = make_instance(workload, topo_kind, 5);
        const SchedulerResult r = s->run(in.g, in.topo, in.cm, 11);
        EXPECT_TRUE(r.schedule.all_placed())
            << spec << " / " << workload << " / " << topo_kind;
        const ValidationReport report = validate(r.schedule, in.cm);
        EXPECT_TRUE(report.ok()) << spec << " / " << workload << " / "
                                 << topo_kind << ": " << report.to_string();
        EXPECT_GT(r.makespan(), 0) << spec;
      }
    }
  }
}

TEST(Conformance, CanonicalSpecRoundTripsAndResolvesReproducibly) {
  const Instance in = make_instance("random", "ring", 5);
  for (const std::string& spec : conformance_specs()) {
    const std::unique_ptr<Scheduler> a = reg().resolve(spec);
    const std::string canonical = a->spec();
    // The canonical form is a fixed point of canonicalisation and
    // resolves to an instance with the same canonical spec.
    EXPECT_EQ(reg().canonical(spec), canonical) << spec;
    EXPECT_EQ(reg().canonical(canonical), canonical) << spec;
    const std::unique_ptr<Scheduler> b = reg().resolve(canonical);
    EXPECT_EQ(b->spec(), canonical) << spec;
    // Repeated resolves are bit-identical run for run.
    EXPECT_EQ(schedule_to_text(a->run(in.g, in.topo, in.cm, 7).schedule),
              schedule_to_text(b->run(in.g, in.topo, in.cm, 7).schedule))
        << spec;
  }
}

TEST(Conformance, SweepResultsBitIdenticalAtAnyThreadCount) {
  runtime::ScenarioGrid grid;
  grid.workloads = {"random", "fft"};
  grid.sizes = {20};
  grid.granularities = {1.0};
  grid.topologies = {"ring"};
  grid.algos = conformance_specs();
  grid.procs = 8;
  grid.seeds_per_cell = 2;
  grid.base_seed = 9;
  const runtime::ScenarioSet set = runtime::ScenarioSet::from_grid(grid);

  const auto lengths = [&](int threads) {
    std::vector<std::pair<std::string, Time>> out;
    for (const runtime::ScenarioResult& r :
         runtime::SweepRunner({.threads = threads}).run(set)) {
      EXPECT_TRUE(r.valid) << r.spec.algo;
      out.emplace_back(r.spec.algo, r.schedule_length);
    }
    return out;
  };
  const auto serial = lengths(1);
  EXPECT_EQ(serial, lengths(2));
  EXPECT_EQ(serial, lengths(8));
}

// --- SA refinement contracts ------------------------------------------------

TEST(Conformance, SaNeverWorseThanItsInitScheduler) {
  for (const std::string init : {"heft", "peft", "bsa"}) {
    for (const std::string& workload : kWorkloads) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        const Instance in = make_instance(workload, "ring", seed);
        const Time base =
            reg().resolve(init)->run(in.g, in.topo, in.cm, seed).makespan();
        const std::string spec = "sa:init=" + init + ",iters=60";
        const Time refined =
            reg().resolve(spec)->run(in.g, in.topo, in.cm, seed).makespan();
        EXPECT_TRUE(time_le(refined, base))
            << spec << " / " << workload << " seed " << seed << ": "
            << refined << " vs init " << base;
      }
    }
  }
}

TEST(Conformance, SaWithZeroItersIsBitIdenticalToItsInit) {
  for (const std::string init : {"heft", "peft", "bsa"}) {
    for (const std::string& topo_kind : kTopologies) {
      const Instance in = make_instance("random", topo_kind, 13);
      const auto plain = reg().resolve(init)->run(in.g, in.topo, in.cm, 13);
      const auto frozen = reg()
                              .resolve("sa:init=" + init + ",iters=0")
                              ->run(in.g, in.topo, in.cm, 13);
      EXPECT_EQ(schedule_to_text(frozen.schedule),
                schedule_to_text(plain.schedule))
          << init << " / " << topo_kind;
    }
  }
}

TEST(Conformance, SaMoveSequenceReplaysBitIdenticallyBySeed) {
  const Instance in = make_instance("random", "ring", 21);
  // Same seed, two fresh resolves: identical schedule AND identical
  // move-stream counters (proposed/accepted/...), i.e. the whole
  // trajectory replays, not just the endpoint.
  const auto a =
      reg().resolve("sa:iters=80,seed=4")->run(in.g, in.topo, in.cm, 1);
  const auto b =
      reg().resolve("sa:iters=80,seed=4")->run(in.g, in.topo, in.cm, 999);
  EXPECT_EQ(schedule_to_text(a.schedule), schedule_to_text(b.schedule));
  EXPECT_EQ(a.counters, b.counters);
  // The pinned seed overrides the caller seed; an unpinned run with the
  // same effective seed matches too.
  const auto c = reg().resolve("sa:iters=80")->run(in.g, in.topo, in.cm, 4);
  EXPECT_EQ(schedule_to_text(a.schedule), schedule_to_text(c.schedule));
  // SA exposes its move-loop counters.
  bool has_proposed = false;
  std::int64_t proposed = 0, accepted = 0;
  for (const auto& [key, value] : a.counters) {
    if (key == "sa.proposed") {
      has_proposed = true;
      proposed = value;
    }
    if (key == "sa.accepted") accepted = value;
  }
  ASSERT_TRUE(has_proposed);
  EXPECT_EQ(proposed, 80);
  EXPECT_LE(accepted, proposed);
}

TEST(Conformance, SaTrajectoriesThroughReplaysArePinned) {
  // Runs whose moves fall back to replay_retime dozens of times. The
  // schedule digest and every sa.* counter are pinned to the values of
  // the re-timing engine that rebuilt its context after each replay, so
  // a cheaper context that never goes stale must replay the same
  // trajectory exactly.
  struct Pin {
    const char* workload;
    const char* topology;
    std::uint64_t seed;
    Time makespan;
    std::uint64_t digest;
    std::vector<std::pair<std::string, std::int64_t>> counters;
  };
  const std::vector<Pin> pins = {
      {"random", "ring", 5, 16511, 2280138260186085021ULL,
       {{"sa.accepted", 26}, {"sa.accepted_worse", 1}, {"sa.best_updates", 0},
        {"sa.proposed", 200}, {"sa.replay_fallbacks", 69}}},
      {"stencil", "hypercube", 21, 39313, 14853688659282909561ULL,
       {{"sa.accepted", 9}, {"sa.accepted_worse", 0}, {"sa.best_updates", 3},
        {"sa.proposed", 200}, {"sa.replay_fallbacks", 76}}},
  };
  for (const Pin& pin : pins) {
    const Instance in = make_instance(pin.workload, pin.topology, pin.seed);
    const auto r =
        reg().resolve("sa:iters=200,seed=4")->run(in.g, in.topo, in.cm, 1);
    // FNV-1a over the canonical text export.
    std::uint64_t digest = 1469598103934665603ULL;
    for (const unsigned char c : schedule_to_text(r.schedule)) {
      digest = (digest ^ c) * 1099511628211ULL;
    }
    std::vector<std::pair<std::string, std::int64_t>> sa_counters;
    for (const auto& [key, value] : r.counters) {
      if (key.rfind("sa.", 0) == 0) sa_counters.emplace_back(key, value);
    }
    EXPECT_EQ(r.makespan(), pin.makespan) << pin.workload;
    EXPECT_EQ(digest, pin.digest) << pin.workload;
    EXPECT_EQ(sa_counters, pin.counters) << pin.workload;
  }
}

}  // namespace
}  // namespace bsa::sched
