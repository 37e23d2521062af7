#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dls.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/bsa.hpp"
#include "exp/experiment.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/schedule_io.hpp"
#include "sched/scheduler.hpp"
#include "spec_declarations.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/workload_registry.hpp"

namespace bsa::sched {
namespace {

/// what() of the PreconditionError thrown by `fn`, or "" when it throws
/// nothing (callers assert on substrings of the message).
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

const SchedulerRegistry& reg() { return SchedulerRegistry::global(); }

// --- spec grammar -----------------------------------------------------------

TEST(SpecGrammar, ParsesNamesAndOptions) {
  const ParsedSpec plain = parse_spec("bsa");
  EXPECT_EQ(plain.name, "bsa");
  EXPECT_TRUE(plain.options.empty());

  const ParsedSpec variant = parse_spec("bsa:gate=always,route=static");
  EXPECT_EQ(variant.name, "bsa");
  ASSERT_EQ(variant.options.size(), 2u);
  EXPECT_EQ(variant.options[0].first, "gate");
  EXPECT_EQ(variant.options[0].second, "always");
  EXPECT_EQ(variant.options[1].first, "route");
  EXPECT_EQ(variant.options[1].second, "static");
}

TEST(SpecGrammar, IsCaseInsensitiveAndTrimsWhitespace) {
  const ParsedSpec p = parse_spec("  BSA : Gate = Always , SWEEPS = 4 ");
  EXPECT_EQ(p.name, "bsa");
  ASSERT_EQ(p.options.size(), 2u);
  EXPECT_EQ(p.options[0].first, "gate");
  EXPECT_EQ(p.options[0].second, "always");
  EXPECT_EQ(p.options[1].first, "sweeps");
  EXPECT_EQ(p.options[1].second, "4");
}

TEST(SpecGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_spec(""), PreconditionError);
  EXPECT_THROW((void)parse_spec("   "), PreconditionError);
  EXPECT_THROW((void)parse_spec(":gate=always"), PreconditionError);
  EXPECT_THROW((void)parse_spec("bsa:"), PreconditionError);
  EXPECT_THROW((void)parse_spec("bsa:gate"), PreconditionError);
  EXPECT_THROW((void)parse_spec("bsa:gate="), PreconditionError);
  EXPECT_THROW((void)parse_spec("bsa:=always"), PreconditionError);
  EXPECT_THROW((void)parse_spec("bsa:gate=always,"), PreconditionError);
  EXPECT_THROW((void)parse_spec("bsa:gate=always,gate=paper"),
               PreconditionError);
}

// --- canonicalization -------------------------------------------------------

TEST(Registry, CanonicalDropsDefaultsLowercasesAndSortsKeys) {
  EXPECT_EQ(reg().canonical("BSA"), "bsa");
  EXPECT_EQ(reg().canonical("Dls"), "dls");
  // Options spelled at their defaults canonicalise away entirely.
  EXPECT_EQ(reg().canonical("bsa:route=incremental,gate=paper,vip=on"),
            "bsa");
  EXPECT_EQ(reg().canonical("dls:seed=0"), "dls");
  // Non-default options sort by key with canonical value spellings.
  EXPECT_EQ(reg().canonical("bsa:route=STATIC,gate=always"),
            "bsa:gate=always,route=static");
  EXPECT_EQ(reg().canonical("bsa:vip=false,sweeps=4"),
            "bsa:sweeps=4,vip=off");
  // SA: defaults drop, doubles take their canonical spelling.
  EXPECT_EQ(reg().canonical("sa:init=heft,iters=100,temp0=0.05"), "sa");
  EXPECT_EQ(reg().canonical("SA:temp0=0.10,init=PEFT"),
            "sa:init=peft,temp0=0.1");
}

TEST(Registry, EveryDeclaredOptionCanonicalisesAndRejectsByItsType) {
  bsa::testing::expect_declarations_hold(reg());
}

TEST(Registry, CanonicalIsIdempotent) {
  for (const std::string spec :
       {"bsa", "dls", "eft", "mh", "heft", "peft", "sa",
        "bsa:gate=always,route=static",
        "bsa:policy=greedy,prune=on,serial=blevel,"
        "slots=append,sweeps=3,vip=off",
        "bsa:seed=42", "dls:seed=7",
        "sa:init=bsa,iters=32,seed=9,temp0=0.2"}) {
    const std::string canonical = reg().canonical(spec);
    EXPECT_EQ(reg().canonical(canonical), canonical) << spec;
  }
}

TEST(Registry, DisplayLabelsComeFromOneTable) {
  EXPECT_EQ(reg().display_label("bsa"), "BSA");
  EXPECT_EQ(reg().display_label("dls"), "DLS");
  EXPECT_EQ(reg().display_label("eft"), "EFT (oblivious)");
  EXPECT_EQ(reg().display_label("mh"), "MH");
  EXPECT_EQ(reg().display_label("heft"), "HEFT");
  EXPECT_EQ(reg().display_label("peft"), "PEFT");
  EXPECT_EQ(reg().display_label("sa"), "SA");
  // A variant is labelled by its canonical spec, not the family name.
  EXPECT_EQ(reg().display_label("bsa:gate=always"), "bsa:gate=always");
  EXPECT_EQ(reg().display_label("sa:iters=0"), "sa:iters=0");
}

TEST(Registry, NamesListsBuiltinsInRegistrationOrder) {
  const std::vector<std::string> names = reg().names();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "bsa");
  EXPECT_EQ(names[1], "dls");
  EXPECT_EQ(names[2], "eft");
  EXPECT_EQ(names[3], "mh");
  EXPECT_EQ(names[4], "heft");
  EXPECT_EQ(names[5], "peft");
  EXPECT_EQ(names[6], "sa");
}

// --- rejection with helpful messages ----------------------------------------

TEST(Registry, UnknownNameListsRegisteredNames) {
  const std::string msg =
      error_message([] { (void)reg().resolve("hneft"); });
  EXPECT_NE(msg.find("unknown scheduler 'hneft'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bsa, dls, eft, mh, heft, peft, sa"), std::string::npos)
      << msg;
}

TEST(Registry, UnknownOptionListsValidOptions) {
  const std::string msg =
      error_message([] { (void)reg().resolve("bsa:gaet=always"); });
  EXPECT_NE(msg.find("unknown option 'gaet'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("gate"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sweeps"), std::string::npos) << msg;
  // The former engine-selection keys are gone from the grammar: BSA has
  // one evaluate / rollback / re-time engine, and the references live on
  // only as test oracles (testing::MoveOracle in bsa_oracle.hpp).
  const std::vector<std::pair<std::string, std::string>> removed_keys = {
      {"bsa:eval=fresh", "eval"},
      {"bsa:rollback=snapshot", "rollback"},
      {"bsa:retime=rebuild", "retime"}};
  for (const auto& removed : removed_keys) {
    const std::string err =
        error_message([&] { (void)reg().resolve(removed.first); });
    EXPECT_NE(err.find("unknown option '" + removed.second + "'"),
              std::string::npos)
        << err;
    const std::size_t listing = err.find("valid options: ");
    ASSERT_NE(listing, std::string::npos) << err;
    for (const auto& gone : removed_keys) {
      EXPECT_EQ(err.find(gone.second, listing), std::string::npos) << err;
    }
  }
  // An algorithm without options says so instead of listing nothing.
  const std::string none =
      error_message([] { (void)reg().resolve("eft:seed=1"); });
  EXPECT_NE(none.find("(none)"), std::string::npos) << none;
}

TEST(Registry, BadValueListsValidChoices) {
  const std::string msg =
      error_message([] { (void)reg().resolve("bsa:gate=sometimes"); });
  EXPECT_NE(msg.find("'gate'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("paper"), std::string::npos) << msg;
  EXPECT_NE(msg.find("always"), std::string::npos) << msg;
  EXPECT_THROW((void)reg().resolve("bsa:sweeps=0"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("bsa:sweeps=abc"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("bsa:vip=maybe"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("dls:seed=-3"), PreconditionError);
}

TEST(Registry, SpecErrorsNameNoSourceFile) {
  // A caller's error reads as one: tools and the daemon print it, so it
  // carries no source location of the check that raised it.
  for (const std::string spec :
       {"hneft", "bsa:gaet=always", "bsa:gate=sometimes", "bsa:sweeps=0",
        "bsa:", "dls:seed=-3"}) {
    const std::string msg = error_message([&] { (void)reg().resolve(spec); });
    ASSERT_FALSE(msg.empty()) << spec;
    EXPECT_EQ(msg.find(".cpp:"), std::string::npos) << msg;
    EXPECT_EQ(msg.find(".hpp:"), std::string::npos) << msg;
  }
}

TEST(Registry, LocalInstanceRejectsDuplicateAndMalformedRegistrations) {
  SchedulerRegistry local;
  register_builtin_schedulers(local);
  EXPECT_EQ(local.names().size(), 7u);
  SchedulerRegistry::Entry dup;
  dup.name = "bsa";
  dup.factory = [](const SpecOptions&) -> std::unique_ptr<Scheduler> {
    return nullptr;
  };
  EXPECT_THROW(local.add(dup), PreconditionError);
  SchedulerRegistry::Entry bad;
  bad.name = "Not:Canonical";
  bad.factory = dup.factory;
  EXPECT_THROW(local.add(bad), PreconditionError);
}

// --- spec list splitting ----------------------------------------------------

TEST(Registry, SplitSpecListKeepsVariantOptionsAttached) {
  EXPECT_EQ(reg().split_spec_list("bsa,dls"),
            (std::vector<std::string>{"bsa", "dls"}));
  // The commas inside a variant's option list do not split the list.
  EXPECT_EQ(reg().split_spec_list("bsa:gate=always,route=static,dls"),
            (std::vector<std::string>{"bsa:gate=always,route=static", "dls"}));
  EXPECT_EQ(reg().split_spec_list("dls:seed=7,bsa:sweeps=2,vip=off,eft"),
            (std::vector<std::string>{"dls:seed=7", "bsa:sweeps=2,vip=off",
                                      "eft"}));
}

// --- behavioural equivalence with the legacy enum dispatch ------------------

struct Instance {
  graph::TaskGraph g;
  net::Topology topo;
  net::HeterogeneousCostModel cm;
};

Instance make_instance(const std::string& topo_kind, std::uint64_t seed) {
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = 1.0;
  params.seed = seed;
  graph::TaskGraph g = workloads::random_layered_dag(params);
  net::Topology topo = exp::make_topology(topo_kind, 8, seed);
  net::HeterogeneousCostModel cm =
      net::HeterogeneousCostModel::uniform_processor_speeds(
          g, topo, 1, 50, 1, 50, derive_seed(seed, 17));
  return {std::move(g), std::move(topo), std::move(cm)};
}

/// Every registered default spec must reproduce the legacy enum path's
/// schedule bit-identically (compared via the full text serialization —
/// placements, hop bookings and times).
TEST(Registry, DefaultSpecsMatchLegacyDispatchBitIdentically) {
  for (const std::string topo_kind : {"ring", "hypercube"}) {
    for (const std::uint64_t seed : {1ULL, 2026ULL}) {
      const Instance in = make_instance(topo_kind, seed);
      const auto legacy = [&](const std::string& name) -> Schedule {
        if (name == "bsa") {
          core::BsaOptions opt;
          opt.seed = seed;
          return core::schedule_bsa(in.g, in.topo, in.cm, opt).schedule;
        }
        if (name == "dls") {
          return baselines::schedule_dls(in.g, in.topo, in.cm).schedule;
        }
        if (name == "eft") {
          return schedule_eft_oblivious(in.g, in.topo, in.cm).schedule;
        }
        return schedule_mh(in.g, in.topo, in.cm).schedule;
      };
      for (const std::string name : {"bsa", "dls", "eft", "mh"}) {
        const SchedulerResult result =
            reg().resolve(name)->run(in.g, in.topo, in.cm, seed);
        EXPECT_EQ(schedule_to_text(result.schedule),
                  schedule_to_text(legacy(name)))
            << name << " on " << topo_kind << " seed " << seed;
      }
    }
  }
}

TEST(Registry, ResultCarriesPhaseTimesAndCounters) {
  const Instance in = make_instance("ring", 7);
  const SchedulerResult r = reg().resolve("bsa")->run(in.g, in.topo, in.cm, 7);
  ASSERT_FALSE(r.phase_ms.empty());
  EXPECT_EQ(r.phase_ms[0].first, "schedule");
  EXPECT_GE(r.total_ms(), 0.0);
  EXPECT_EQ(r.makespan(), r.schedule.makespan());
  bool has_migrations = false;
  for (const auto& [key, _] : r.counters) {
    has_migrations = has_migrations || key == "bsa.migrations";
  }
  EXPECT_TRUE(has_migrations);
  // Counter snapshots are sorted by name — the deterministic flush order.
  EXPECT_TRUE(std::is_sorted(
      r.counters.begin(), r.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(Registry, VariantOptionsReachTheAlgorithm) {
  const Instance in = make_instance("hypercube", 5);
  // The plain spec runs BSA with its default options and the caller seed.
  const auto plain = reg().resolve("bsa")->run(in.g, in.topo, in.cm, 5);
  core::BsaOptions defaults;
  defaults.seed = 5;
  EXPECT_EQ(schedule_to_text(plain.schedule),
            schedule_to_text(
                core::schedule_bsa(in.g, in.topo, in.cm, defaults).schedule));
  // A pinned seed overrides the caller seed: pinning the caller's value
  // must reproduce it exactly.
  const auto pinned =
      reg().resolve("bsa:seed=5")->run(in.g, in.topo, in.cm, 999);
  EXPECT_EQ(schedule_to_text(pinned.schedule),
            schedule_to_text(plain.schedule));
  // Structural variants still produce valid, complete schedules.
  for (const std::string spec :
       {"bsa:gate=always", "bsa:policy=greedy", "bsa:serial=blevel",
        "bsa:slots=append", "bsa:sweeps=2", "bsa:route=static",
        "bsa:vip=off,prune=on"}) {
    const auto r = reg().resolve(spec)->run(in.g, in.topo, in.cm, 5);
    EXPECT_GT(r.makespan(), 0) << spec;
  }
}

TEST(Registry, DlsSeedOptionRandomisesTieBreaksDeterministically) {
  const Instance in = make_instance("ring", 11);
  // Default stays the legacy deterministic tie-break.
  const auto plain = reg().resolve("dls")->run(in.g, in.topo, in.cm, 11);
  EXPECT_EQ(schedule_to_text(plain.schedule),
            schedule_to_text(
                baselines::schedule_dls(in.g, in.topo, in.cm).schedule));
  // A pinned seed is deterministic: same spec, same schedule.
  const auto a = reg().resolve("dls:seed=7")->run(in.g, in.topo, in.cm, 11);
  const auto b = reg().resolve("dls:seed=7")->run(in.g, in.topo, in.cm, 42);
  EXPECT_EQ(schedule_to_text(a.schedule), schedule_to_text(b.schedule));
  // And wired through DlsOptions, not ignored.
  baselines::DlsOptions opt;
  opt.seed = 7;
  EXPECT_EQ(schedule_to_text(a.schedule),
            schedule_to_text(
                baselines::schedule_dls(in.g, in.topo, in.cm, opt).schedule));
}

// --- sweep integration ------------------------------------------------------

/// Acceptance: a ScenarioGrid can enumerate several BSA variant specs in
/// one sweep; specs are canonicalised and results stay per-variant.
TEST(Registry, ScenarioGridEnumeratesVariantCrossProducts) {
  runtime::ScenarioGrid grid;
  grid.workloads = {"random"};
  grid.sizes = {20};
  grid.granularities = {1.0};
  grid.topologies = {"ring"};
  grid.algos = {"DLS", "bsa", "bsa:gate=always,route=static",
                "bsa:sweeps=2"};
  grid.procs = 4;
  grid.seeds_per_cell = 2;
  grid.base_seed = 3;
  const runtime::ScenarioSet set = runtime::ScenarioSet::from_grid(grid);
  ASSERT_EQ(set.size(), 8u);  // 2 reps x 4 specs
  EXPECT_EQ(set[0].algo, "dls");  // canonicalised
  EXPECT_EQ(set[2].algo, "bsa:gate=always,route=static");
  const auto results = runtime::SweepRunner({.threads = 2}).run(set);
  ASSERT_EQ(results.size(), set.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.valid) << r.spec.algo;
    EXPECT_GT(r.schedule_length, 0) << r.spec.algo;
  }
  // The default-BSA scenarios must match a direct registry run with the
  // same derived seeds (the sweep changes nothing about dispatch).
  const graph::TaskGraph g = workloads::WorkloadRegistry::global()
                                 .resolve("random")
                                 ->generate(20, 1.0, set[1].instance_seed);
  const net::Topology topo =
      exp::make_topology("ring", 4, set[1].topology_seed);
  const net::HeterogeneousCostModel cm = exp::make_cost_model(
      g, topo, 1, 50, 1, 50, false, derive_seed(set[1].instance_seed, 17));
  const auto direct_run =
      reg().resolve("bsa")->run(g, topo, cm, set[1].algo_seed);
  EXPECT_EQ(results[1].schedule_length, direct_run.makespan());
}

TEST(Registry, FromGridRejectsBadSpecsUpFront) {
  runtime::ScenarioGrid grid;
  grid.sizes = {10};
  grid.topologies = {"ring"};
  grid.algos = {"bsa", "no-such-algo"};
  EXPECT_THROW((void)runtime::ScenarioSet::from_grid(grid),
               PreconditionError);
}

}  // namespace
}  // namespace bsa::sched
