#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/schedule.hpp"
#include "sched/event_sim.hpp"
#include "sched/schedule_io.hpp"
#include "sched/scheduler.hpp"
#include "sched/timeline.hpp"
#include "sched/validate.hpp"
#include "slot_precondition.hpp"
#include "workloads/workload_registry.hpp"

/// Cross-registry scheduler-conformance harness: every registered
/// scheduler spec (default and variant) x a sampled grid of workload
/// specs x topologies must
///  * produce a sched::validate()-clean complete schedule whose
///    processor and link lists meet sched::earliest_fit's precondition,
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

/// `g` with every third task cost and every third edge cost set to zero
/// (zero-length tasks and hops: ties and boundary slots).
graph::TaskGraph with_zero_costs(const graph::TaskGraph& g) {
  graph::TaskGraphBuilder b;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    (void)b.add_task(t % 3 == 1 ? 0 : g.task_cost(t), g.task_name(t));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    (void)b.add_edge(g.edge_src(e), g.edge_dst(e),
                     e % 3 == 0 ? 0 : g.edge_cost(e));
  }
  return b.build();
}

/// The one-decimal zero-cost graphs of scripts/compare_outputs.sh (its
/// zero_cost_graph, the same LCG in doubles, as awk computes it): 60
/// tasks, costs k/10 so that sums round, and every third task and every
/// third edge free.
graph::TaskGraph one_decimal_zero_cost_graph(std::uint64_t seed) {
  auto x = static_cast<double>(seed);
  const auto next = [&x] {
    x = std::fmod(x * 1103515245.0 + 12345.0, 2147483648.0);
    return x;
  };
  graph::TaskGraphBuilder b;
  for (int i = 0; i < 60; ++i) {
    next();
    (void)b.add_task(i % 3 == 1 ? 0 : (std::fmod(x, 97) + 1) / 10);
  }
  int n = 0;
  for (int j = 1; j < 60; ++j) {
    const int k = 1 + static_cast<int>(std::fmod(next(), 3));
    std::vector<bool> used(static_cast<std::size_t>(j), false);
    for (int m = 0; m < k; ++m) {
      const auto i = static_cast<std::size_t>(std::fmod(next(), j));
      if (used[i]) continue;
      used[i] = true;
      next();
      (void)b.add_edge(static_cast<TaskId>(i), j,
                       n++ % 3 == 0 ? 0 : (std::fmod(x, 61) + 1) / 10);
    }
  }
  return b.build();
}

Instance make_instance(const std::string& workload,
                       const std::string& topo_kind, std::uint64_t seed,
                       bool zero_costs = false) {
  graph::TaskGraph g = workloads::WorkloadRegistry::global()
                           .resolve(workload)
                           ->generate(/*target_tasks=*/22,
                                      /*granularity=*/1.0, seed);
  if (zero_costs) g = with_zero_costs(g);
  net::Topology topo = exp::make_topology(topo_kind, 8, seed);
  net::HeterogeneousCostModel cm =
      net::HeterogeneousCostModel::uniform_processor_speeds(
          g, topo, 1, 50, 1, 50, derive_seed(seed, 17));
  return {std::move(g), std::move(topo), std::move(cm)};
}

/// Empty when every processor's task order and every link's bookings
/// in `s` meet sched::earliest_fit's precondition, else the first
/// offending resource.
std::string slot_precondition_violation(const Schedule& s) {
  for (ProcId p = 0; p < s.topology().num_processors(); ++p) {
    if (!testing::meets_slot_precondition(s.tasks_on(p), [&](TaskId t) {
          return Interval{s.start_of(t), s.finish_of(t)};
        })) {
      return "processor " + std::to_string(p);
    }
  }
  for (LinkId l = 0; l < s.topology().num_links(); ++l) {
    if (!testing::meets_slot_precondition(
            s.bookings_on(l), [](const LinkBooking& bk) {
              return Interval{bk.start, bk.finish};
            })) {
      return "link " + std::to_string(l);
    }
  }
  return {};
}

TEST(Conformance, EverySpecValidatesOnEveryWorkloadAndTopology) {
  for (const std::string& spec : conformance_specs()) {
    const std::unique_ptr<Scheduler> s = reg().resolve(spec);
    for (const std::string& workload : kWorkloads) {
      for (const std::string& topo_kind : kTopologies) {
        for (const bool zero_costs : {false, true}) {
          const Instance in = make_instance(workload, topo_kind, 5, zero_costs);
          const SchedulerResult r = s->run(in.g, in.topo, in.cm, 11);
          const std::string where = spec + " / " + workload + " / " +
                                    topo_kind +
                                    (zero_costs ? " / zero costs" : "");
          EXPECT_TRUE(r.schedule.all_placed()) << where;
          const ValidationReport report = validate(r.schedule, in.cm);
          EXPECT_TRUE(report.ok()) << where << ": " << report.to_string();
          EXPECT_GT(r.makespan(), 0) << where;
          EXPECT_EQ(slot_precondition_violation(r.schedule), "") << where;
        }
      }
    }
  }
}

TEST(Conformance, OneDecimalZeroCostGraphsValidateAndSimulate) {
  // Fractional costs whose sums round, zero-length tasks and hops on
  // their boundaries: every spec must book them without an overlap, and
  // the orders it leaves must execute to exactly its times.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const graph::TaskGraph g = one_decimal_zero_cost_graph(seed);
    for (const std::string topo_kind : {"ring", "hypercube", "mesh"}) {
      const net::Topology topo = exp::make_topology(topo_kind, 8, seed);
      const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
          g, topo, 1, 4, 1, 2, seed);
      for (const std::string& spec : conformance_specs()) {
        const std::string where = spec + " / " + topo_kind + " / seed " +
                                  std::to_string(seed);
        std::optional<SchedulerResult> r;
        try {
          r.emplace(reg().resolve(spec)->run(g, topo, cm, seed));
        } catch (const std::exception& e) {
          ADD_FAILURE() << where << ": " << e.what();
          continue;
        }
        const ValidationReport report = validate(r->schedule, cm);
        EXPECT_TRUE(report.ok()) << where << ": " << report.to_string();
        EXPECT_TRUE(simulation_matches(
            r->schedule, simulate_execution(r->schedule, cm)))
            << where;
        EXPECT_EQ(slot_precondition_violation(r->schedule), "") << where;
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
        EXPECT_TRUE(refined <= base)
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
  // Runs whose moves fall back to a replay dozens of times. The schedule
  // digest and every sa.* counter are pinned to the values of the
  // re-timing engine that rebuilt its context after each replay, so a
  // cheaper context that never goes stale must replay the same trajectory
  // exactly. sa.replay_fallbacks counts the replays run: an accepted move
  // is kept as measured, never replayed a second time.
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
        {"sa.proposed", 200}, {"sa.replay_fallbacks", 62}}},
      {"stencil", "hypercube", 21, 39313, 14853688659282909561ULL,
       {{"sa.accepted", 9}, {"sa.accepted_worse", 0}, {"sa.best_updates", 3},
        {"sa.proposed", 200}, {"sa.replay_fallbacks", 73}}},
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

TEST(Conformance, ListSchedulerSchedulesArePinned) {
  // The contended-route probe the list schedulers share (a copy-free
  // first touch per link, one probe per run, DLS's per-(task, processor)
  // cache) must not change a single schedule: FNV-1a digests of the
  // canonical text export, pinned to the per-call overlay probe.
  const std::vector<std::string> specs = {"dls", "dls:seed=7", "mh",
                                          "heft", "peft", "eft"};
  struct Pin {
    const char* workload;
    const char* topology;
    int procs;
    std::vector<std::uint64_t> digests;  // one per spec, in `specs` order
  };
  const std::vector<Pin> pins = {
      {"random", "ring", 8,
       {2403761991834252595ULL, 2403761991834252595ULL, 2533002636551484098ULL,
        765241859119773354ULL, 7771822624679791629ULL, 9341960596157657975ULL}},
      {"random", "hypercube", 16,
       {4115128062378157433ULL, 11830550515179624351ULL, 4553079417293725405ULL,
        7145419803914206976ULL, 10683422058336812446ULL, 5812861593462960335ULL}},
      {"random", "mesh", 16,
       {6151740416596166238ULL, 11498475052866183332ULL, 2964552569855105460ULL,
        15594015845262593815ULL, 6169469104145461341ULL, 10118804512854762334ULL}},
      {"random", "clique", 8,
       {4646546373053305850ULL, 4646546373053305850ULL, 2068808268691607190ULL,
        12429573371394847057ULL, 17005695068332063752ULL, 13420685055358083393ULL}},
      {"gauss", "ring", 8,
       {7098571257812158626ULL, 7098571257812158626ULL, 5758301391644192250ULL,
        1791396369815834267ULL, 1262914910171998702ULL, 16715334311042641553ULL}},
      {"gauss", "hypercube", 16,
       {3127731437263347194ULL, 3394653206055882418ULL, 4319969711080733875ULL,
        1726399973349718086ULL, 18111954067327241300ULL, 6865250551184930836ULL}},
      {"gauss", "mesh", 16,
       {8594831849656786392ULL, 4151710869521531631ULL, 6520061169738924883ULL,
        1740763821035411042ULL, 11983360923366589504ULL, 7808539920025472733ULL}},
      {"gauss", "clique", 8,
       {14924595434223426669ULL, 15899440915396941843ULL, 10418098109016613924ULL,
        6851233778812505524ULL, 14142989403666864447ULL, 16350289579435286086ULL}},
      {"fft", "ring", 8,
       {4587051544445405277ULL, 15990786677672324018ULL, 15883736260064800565ULL,
        10073818981341599964ULL, 12876181877343817388ULL, 13129371140240517122ULL}},
      {"fft", "hypercube", 16,
       {5258723352767004879ULL, 3778038568170887204ULL, 3693792702419881782ULL,
        8897330295028124994ULL, 13537602846438180308ULL, 13786871854203620295ULL}},
      {"fft", "mesh", 16,
       {9897471110179397284ULL, 655207391408509948ULL, 7321649878962658565ULL,
        14108185011050657636ULL, 10851707052492856231ULL, 4162876913417732546ULL}},
      {"fft", "clique", 8,
       {1324610403387231719ULL, 13621150895193317177ULL, 2727915349030011703ULL,
        6229507978010187038ULL, 11956922447722195779ULL, 8881101964685322474ULL}},
      {"stencil", "ring", 8,
       {17756755033216346528ULL, 14197878923101750617ULL, 3357827856697291399ULL,
        755222163955201301ULL, 5825588227146260674ULL, 13539319138182780108ULL}},
      {"stencil", "hypercube", 16,
       {184770559694560228ULL, 3515704523650946350ULL, 17231118643066238266ULL,
        8808156749397005265ULL, 274094460177412372ULL, 13204496872791090606ULL}},
      {"stencil", "mesh", 16,
       {17215227251076322569ULL, 14731760523620965641ULL, 1022199357625740344ULL,
        2339495288078014513ULL, 9275826300810401846ULL, 2352031753101435592ULL}},
      {"stencil", "clique", 8,
       {11382966897870267776ULL, 9846968562822991368ULL, 12880137746545843942ULL,
        9116220499212478609ULL, 2755188810970508571ULL, 1295709634665024689ULL}},
  };
  ASSERT_EQ(pins.size(), 16U);
  for (const Pin& pin : pins) {
    graph::TaskGraph g = workloads::WorkloadRegistry::global()
                             .resolve(pin.workload)
                             ->generate(/*target_tasks=*/40,
                                        /*granularity=*/0.5, 3);
    const net::Topology topo = exp::make_topology(pin.topology, pin.procs, 3);
    const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
        g, topo, 1, 4, 1, 2, 3);
    ASSERT_EQ(pin.digests.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto r = reg().resolve(specs[i])->run(g, topo, cm, 1);
      std::uint64_t digest = 1469598103934665603ULL;
      for (const unsigned char c : schedule_to_text(r.schedule)) {
        digest = (digest ^ c) * 1099511628211ULL;
      }
      EXPECT_EQ(digest, pin.digests[i])
          << specs[i] << " on " << pin.workload << " / " << pin.topology
          << "-" << pin.procs;
    }
  }
}

/// `g` with every nominal task and edge cost multiplied by 2^k, which is
/// exact in binary floating point.
graph::TaskGraph scaled_by_pow2(const graph::TaskGraph& g, int k) {
  graph::TaskGraphBuilder b;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    (void)b.add_task(std::ldexp(g.task_cost(t), k), g.task_name(t));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    (void)b.add_edge(g.edge_src(e), g.edge_dst(e),
                     std::ldexp(g.edge_cost(e), k));
  }
  return b.build();
}

TEST(Conformance, EveryScheduleScalesExactlyWithPowerOfTwoCosts) {
  // Time has no unit: scaling every nominal cost by 2^k (same cost-model
  // seed) must give the same placements and routes with every task and
  // hop time multiplied by exactly 2^k, for every registered scheduler.
  const net::Topology topo = exp::make_topology("hypercube", 16, 1);
  for (const std::string workload : {"random", "gauss", "fft"}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const graph::TaskGraph g = workloads::WorkloadRegistry::global()
                                     .resolve(workload)
                                     ->generate(/*target_tasks=*/120,
                                                /*granularity=*/1.0, seed);
      const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
          g, topo, 1, 4, 1, 2, seed);
      for (const std::string& spec : reg().names()) {
        const std::unique_ptr<Scheduler> s = reg().resolve(spec);
        const Schedule base = s->run(g, topo, cm, seed).schedule;
        for (int k = -60; k <= 60; ++k) {
          if (k == 0) continue;
          const graph::TaskGraph gk = scaled_by_pow2(g, k);
          const auto cmk =
              net::HeterogeneousCostModel::uniform_processor_speeds(
                  gk, topo, 1, 4, 1, 2, seed);
          const Schedule scaled = s->run(gk, topo, cmk, seed).schedule;
          const std::string where = spec + " on " + workload + " seed " +
                                    std::to_string(seed) + " k " +
                                    std::to_string(k);
          const auto off = [k](Time base_time, Time scaled_time) {
            return scaled_time != std::ldexp(base_time, k);
          };
          std::size_t mismatches = 0;
          for (TaskId t = 0; t < g.num_tasks(); ++t) {
            mismatches += scaled.proc_of(t) != base.proc_of(t) ||
                          off(base.start_of(t), scaled.start_of(t)) ||
                          off(base.finish_of(t), scaled.finish_of(t));
          }
          for (EdgeId e = 0; e < g.num_edges(); ++e) {
            const std::vector<Hop>& hops = base.route_of(e);
            const std::vector<Hop>& hops_k = scaled.route_of(e);
            mismatches += hops.size() != hops_k.size();
            for (std::size_t h = 0; h < std::min(hops.size(), hops_k.size());
                 ++h) {
              mismatches += hops_k[h].link != hops[h].link ||
                            off(hops[h].start, hops_k[h].start) ||
                            off(hops[h].finish, hops_k[h].finish);
            }
          }
          EXPECT_EQ(mismatches, 0U) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bsa::sched
