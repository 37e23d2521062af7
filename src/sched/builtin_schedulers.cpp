#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dls.hpp"
#include "core/bsa.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/sa.hpp"
#include "sched/scheduler.hpp"

/// \file builtin_schedulers.cpp
/// Adapters that put the library's algorithms — BSA, the list schedulers
/// (DLS, EFT, MH, HEFT, PEFT; one adapter class) and the
/// simulated-annealing refiner — behind the unified sched::Scheduler
/// interface, and their registration with the global SchedulerRegistry.
/// The existing free functions (core::schedule_bsa,
/// baselines::schedule_dls, sched::schedule_heft/peft/mh/eft_oblivious,
/// sched::anneal_schedule) remain the implementation and keep their
/// white-box result structs; the adapters only translate options and
/// package results.

namespace bsa::sched {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  // lint:allow(wall-clock): phase wall-time reporting only, never a result
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Canonical specs are assembled by the shared bsa::canonical_spec
// (common/spec.hpp) — non-default options only, sorted by key.
using bsa::canonical_spec;

// --- BSA --------------------------------------------------------------------

class BsaScheduler final : public Scheduler {
 public:
  explicit BsaScheduler(const SpecOptions& opts) {
    const std::string gate = opts.get_choice("gate", {"paper", "always"},
                                             "paper");
    options_.gate = gate == "always" ? core::GateRule::kAlwaysConsider
                                     : core::GateRule::kPaper;
    const std::string policy =
        opts.get_choice("policy", {"guarded", "greedy"}, "guarded");
    options_.policy = policy == "greedy" ? core::MigrationPolicy::kTaskGreedy
                                         : core::MigrationPolicy::kMakespanGuarded;
    const std::string route = opts.get_choice(
        "route", {"incremental", "static", "ecube"}, "incremental");
    options_.routing = route == "static"
                           ? core::RouteDiscipline::kStaticShortestPath
                       : route == "ecube" ? core::RouteDiscipline::kEcube
                                          : core::RouteDiscipline::kIncremental;
    const std::string serial =
        opts.get_choice("serial", {"cpibob", "blevel"}, "cpibob");
    options_.serialization = serial == "blevel"
                                 ? core::SerializationRule::kBLevel
                                 : core::SerializationRule::kCpIbOb;
    options_.max_sweeps = opts.get_int("sweeps", 1, 1);
    options_.vip_rule = opts.get_flag("vip", true);
    options_.prune_route_cycles = opts.get_flag("prune", false);
    const std::string slots =
        opts.get_choice("slots", {"insert", "append"}, "insert");
    options_.insertion_slots = slots == "insert";
    if (opts.has("seed")) pinned_seed_ = opts.get_uint64("seed", 0);

    std::vector<std::string> parts;  // alphabetical by key
    if (gate != "paper") parts.push_back("gate=" + gate);
    if (policy != "guarded") parts.push_back("policy=" + policy);
    if (options_.prune_route_cycles) parts.push_back("prune=on");
    if (route != "incremental") parts.push_back("route=" + route);
    if (pinned_seed_.has_value()) {
      parts.push_back("seed=" + std::to_string(*pinned_seed_));
    }
    if (serial != "cpibob") parts.push_back("serial=" + serial);
    if (slots != "insert") parts.push_back("slots=" + slots);
    if (options_.max_sweeps != 1) {
      parts.push_back("sweeps=" + std::to_string(options_.max_sweeps));
    }
    if (!options_.vip_rule) parts.push_back("vip=off");
    spec_ = canonical_spec("bsa", std::move(parts));
  }

  [[nodiscard]] std::string spec() const override { return spec_; }
  [[nodiscard]] std::string display_name() const override { return "BSA"; }

  [[nodiscard]] SchedulerResult run(const graph::TaskGraph& g,
                                    const net::Topology& topo,
                                    const net::HeterogeneousCostModel& costs,
                                    std::uint64_t seed) const override {
    return run_impl(g, topo, costs, seed, obs::Hooks{});
  }

  [[nodiscard]] SchedulerResult run_observed(
      const graph::TaskGraph& g, const net::Topology& topo,
      const net::HeterogeneousCostModel& costs, std::uint64_t seed,
      const obs::Hooks& hooks) const override {
    obs::Span span(hooks.tracer, spec(), "sched", hooks.trace_tid);
    return run_impl(g, topo, costs, seed, hooks);
  }

 private:
  [[nodiscard]] SchedulerResult run_impl(
      const graph::TaskGraph& g, const net::Topology& topo,
      const net::HeterogeneousCostModel& costs, std::uint64_t seed,
      const obs::Hooks& hooks) const {
    core::BsaOptions opt = options_;
    opt.seed = pinned_seed_.value_or(seed);
    opt.obs = hooks;
    // lint:allow(wall-clock): phase wall-time reporting only, never a result
    const auto t0 = Clock::now();
    core::BsaResult r = core::schedule_bsa(g, topo, costs, opt);
    const double ms = ms_since(t0);
    SchedulerResult out(std::move(r.schedule));
    out.phase_ms = {{"schedule", ms}};

    const core::BsaTrace& t = r.trace;
    std::int64_t vip = 0;
    for (const core::Migration& m : t.migrations) vip += m.via_vip_rule;
    obs::Registry reg;
    reg.add("bsa.migrations", static_cast<std::int64_t>(t.migrations.size()));
    reg.add("bsa.migrations_vip", vip);
    reg.add("bsa.pivots", static_cast<std::int64_t>(t.pivot_sequence.size()));
    reg.add("bsa.considered", t.considered);
    reg.add("bsa.gate_skips", t.gate_skips);
    reg.add("bsa.rejected.makespan_guard", t.rejected_migrations);
    reg.add("bsa.rejected.no_gain", t.rejected_no_gain);
    reg.add("bsa.replay_fallbacks", t.engine.replay_fallbacks);
    // Serial lengths are integral by the cost model's construction
    // (integer factor x integer nominal cost), so the counter is exact.
    reg.add("bsa.initial_serial_length",
            static_cast<std::int64_t>(t.initial_serial_length));
    reg.add("bsa.retime.nodes_recomputed", t.engine.retime.nodes_recomputed);
    reg.add("bsa.retime.migrations", t.engine.retime.migrations);
    reg.add("bsa.retime.undos", t.engine.retime.undos);
    reg.add("bsa.retime.full_rebuilds", t.engine.retime.full_rebuilds);
    reg.add("bsa.txn.journal_hwm", t.engine.txn_journal_hwm);
    reg.add("bsa.txn.journal_records", t.engine.txn_journal_records);
    reg.add("bsa.slot_index_builds", t.engine.slot_index_builds);
    reg.add("bsa.eval.trials", t.eval_trials);
    out.counters = reg.snapshot();
    audit_result(out.schedule, costs, spec());
    return out;
  }

  core::BsaOptions options_;
  std::optional<std::uint64_t> pinned_seed_;
  std::string spec_;
};

// --- list schedulers (DLS, EFT, MH, HEFT, PEFT) -----------------------------

class ListScheduler final : public Scheduler {
 public:
  using Fn = std::function<RankScheduleResult(
      const graph::TaskGraph&, const net::Topology&,
      const net::HeterogeneousCostModel&)>;

  ListScheduler(std::string spec, std::string display_name, Fn fn)
      : spec_(std::move(spec)),
        display_name_(std::move(display_name)),
        fn_(std::move(fn)) {}

  [[nodiscard]] std::string spec() const override { return spec_; }
  [[nodiscard]] std::string display_name() const override {
    return display_name_;
  }

  [[nodiscard]] SchedulerResult run(const graph::TaskGraph& g,
                                    const net::Topology& topo,
                                    const net::HeterogeneousCostModel& costs,
                                    std::uint64_t /*seed*/) const override {
    // The caller seed is deliberately ignored: the list schedulers are
    // fully deterministic (DLS ties towards smaller ids, as in the legacy
    // enum dispatch); DLS's randomised tie-breaking is opted into by
    // pinning seed=.
    // lint:allow(wall-clock): phase wall-time reporting only, never a result
    const auto t0 = Clock::now();
    RankScheduleResult r = fn_(g, topo, costs);
    const double ms = ms_since(t0);
    SchedulerResult out(std::move(r.schedule));
    out.phase_ms = {{"schedule", ms}};
    audit_result(out.schedule, costs, spec());
    return out;
  }

 private:
  std::string spec_;
  std::string display_name_;
  Fn fn_;
};

// --- SA ---------------------------------------------------------------------

class SaScheduler final : public Scheduler {
 public:
  explicit SaScheduler(const SpecOptions& opts) {
    const std::string init = opts.get_choice(
        "init", {"heft", "peft", "bsa", "dls", "eft", "mh"}, "heft");
    options_.iters = opts.get_int("iters", 100, 0);
    options_.temp0 = opts.get_double("temp0", 0.05, 0.0);
    if (opts.has("seed")) pinned_seed_ = opts.get_uint64("seed", 0);
    // Factories run at resolve time, after the registry is fully built,
    // so resolving the init scheduler here cannot recurse into
    // registration. "sa" is not an accepted init, so no self-nesting.
    init_ = SchedulerRegistry::global().resolve(init);

    std::vector<std::string> parts;  // alphabetical by key
    if (init != "heft") parts.push_back("init=" + init);
    if (options_.iters != 100) {
      parts.push_back("iters=" + std::to_string(options_.iters));
    }
    if (pinned_seed_.has_value()) {
      parts.push_back("seed=" + std::to_string(*pinned_seed_));
    }
    if (options_.temp0 != 0.05) {
      parts.push_back("temp0=" + bsa::canonical_double(options_.temp0));
    }
    spec_ = canonical_spec("sa", std::move(parts));
  }

  [[nodiscard]] std::string spec() const override { return spec_; }
  [[nodiscard]] std::string display_name() const override { return "SA"; }

  [[nodiscard]] SchedulerResult run(const graph::TaskGraph& g,
                                    const net::Topology& topo,
                                    const net::HeterogeneousCostModel& costs,
                                    std::uint64_t seed) const override {
    return run_impl(g, topo, costs, seed);
  }

  [[nodiscard]] SchedulerResult run_observed(
      const graph::TaskGraph& g, const net::Topology& topo,
      const net::HeterogeneousCostModel& costs, std::uint64_t seed,
      const obs::Hooks& hooks) const override {
    obs::Span span(hooks.tracer, spec(), "sched", hooks.trace_tid);
    return run_impl(g, topo, costs, seed);
  }

 private:
  [[nodiscard]] SchedulerResult run_impl(
      const graph::TaskGraph& g, const net::Topology& topo,
      const net::HeterogeneousCostModel& costs, std::uint64_t seed) const {
    const std::uint64_t eff = pinned_seed_.value_or(seed);
    // lint:allow(wall-clock): phase wall-time reporting only, never a result
    auto t0 = Clock::now();
    SchedulerResult ir = init_->run(g, topo, costs, eff);
    const double init_ms = ms_since(t0);
    SaOptions opt = options_;
    opt.seed = eff;
    // lint:allow(wall-clock): phase wall-time reporting only, never a result
    t0 = Clock::now();
    SaResult r = anneal_schedule(ir.schedule, costs, opt);
    const double anneal_ms = ms_since(t0);

    SchedulerResult out(std::move(r.schedule));
    out.phase_ms = {{"init", init_ms}, {"anneal", anneal_ms}};
    obs::Registry reg;
    reg.merge(ir.counters);  // the init run's counters ride along
    reg.add("sa.proposed", r.proposed);
    reg.add("sa.accepted", r.accepted);
    reg.add("sa.accepted_worse", r.accepted_worse);
    reg.add("sa.best_updates", r.best_updates);
    reg.add("sa.replay_fallbacks", r.replay_fallbacks);
    out.counters = reg.snapshot();
    audit_result(out.schedule, costs, spec());
    return out;
  }

  SaOptions options_;
  std::optional<std::uint64_t> pinned_seed_;
  std::unique_ptr<Scheduler> init_;
  std::string spec_;
};

}  // namespace

void register_builtin_schedulers(SchedulerRegistry& registry) {
  using OptionDoc = SchedulerRegistry::OptionDoc;
  registry.add({
      "bsa",
      "BSA",
      "Bubble Scheduling and Allocation (the paper's algorithm)",
      {
          OptionDoc{"gate", "paper|always", "paper",
                    "which pivot tasks are examined for migration"},
          OptionDoc{"policy", "guarded|greedy", "guarded",
                    "makespan-guarded vs literal task-greedy migration"},
          OptionDoc{"prune", "on|off", "off",
                    "cut cycles out of hop-extended message routes"},
          OptionDoc{"route", "incremental|static|ecube", "incremental",
                    "message route discipline"},
          OptionDoc{"seed", "unsigned integer", "(caller seed)",
                    "pin the critical-path tie-breaking seed"},
          OptionDoc{"serial", "cpibob|blevel", "cpibob",
                    "serial-injection order"},
          OptionDoc{"slots", "insert|append", "insert",
                    "insertion-based vs append-only slot search"},
          OptionDoc{"sweeps", "integer >= 1", "1",
                    "breadth-first pivot sweeps"},
          OptionDoc{"vip", "on|off", "on",
                    "equal-finish-time VIP migration rule"},
      },
      [](const SpecOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<BsaScheduler>(opts);
      },
  });
  registry.add({
      "dls",
      "DLS",
      "Dynamic Level Scheduling (Sih & Lee), the paper's comparison",
      {
          OptionDoc{"seed", "unsigned integer", "0",
                    "non-zero randomises dynamic-level tie-breaking"},
      },
      [](const SpecOptions& opts) -> std::unique_ptr<Scheduler> {
        baselines::DlsOptions opt;
        opt.seed = opts.get_uint64("seed", 0);
        std::vector<std::string> parts;
        if (opt.seed != 0) parts.push_back("seed=" + std::to_string(opt.seed));
        return std::make_unique<ListScheduler>(
            canonical_spec("dls", std::move(parts)), "DLS",
            [opt](const graph::TaskGraph& g, const net::Topology& topo,
                  const net::HeterogeneousCostModel& costs) {
              return baselines::schedule_dls(g, topo, costs, opt);
            });
      },
  });
  registry.add({
      "eft",
      "EFT (oblivious)",
      "contention-oblivious earliest-finish-time list scheduler",
      {},
      [](const SpecOptions&) -> std::unique_ptr<Scheduler> {
        return std::make_unique<ListScheduler>("eft", "EFT (oblivious)",
                                               schedule_eft_oblivious);
      },
  });
  registry.add({
      "mh",
      "MH",
      "Mapping-Heuristic-style contention-aware list scheduler",
      {},
      [](const SpecOptions&) -> std::unique_ptr<Scheduler> {
        return std::make_unique<ListScheduler>("mh", "MH", schedule_mh);
      },
  });
  registry.add({
      "heft",
      "HEFT",
      "upward-rank list scheduler (Topcuoglu et al.) with contended routing",
      {},
      [](const SpecOptions&) -> std::unique_ptr<Scheduler> {
        return std::make_unique<ListScheduler>("heft", "HEFT", schedule_heft);
      },
  });
  registry.add({
      "peft",
      "PEFT",
      "optimistic-cost-table list scheduler (Arabnejad & Barbosa) with "
      "contended routing",
      {},
      [](const SpecOptions&) -> std::unique_ptr<Scheduler> {
        return std::make_unique<ListScheduler>("peft", "PEFT", schedule_peft);
      },
  });
  registry.add({
      "sa",
      "SA",
      "simulated-annealing refinement of an init scheduler's result "
      "(transactional O(touched) move evaluation)",
      {
          OptionDoc{"init", "heft|peft|bsa|dls|eft|mh", "heft",
                    "scheduler whose result is refined"},
          OptionDoc{"iters", "integer >= 0", "100",
                    "proposed migration moves (0 returns the init schedule "
                    "bit-identically)"},
          OptionDoc{"seed", "unsigned integer", "(caller seed)",
                    "pin the move/acceptance stream (also passed to init)"},
          OptionDoc{"temp0", "float > 0", "0.05",
                    "initial temperature as a fraction of the init makespan"},
      },
      [](const SpecOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<SaScheduler>(opts);
      },
  });
}

}  // namespace bsa::sched
