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
/// white-box result structs. Each option is declared once in
/// register_builtin_schedulers (key, type with its bound or choices,
/// default, summary); the registry validates specs against the
/// declarations and builds the canonical spec, and the adapters only map
/// the declared values onto the algorithm's options and package results.

namespace bsa::sched {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  // lint:allow(wall-clock): phase wall-time reporting only, never a result
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- BSA --------------------------------------------------------------------

class BsaScheduler final : public Scheduler {
 public:
  BsaScheduler(const SpecOptions& opts, const core::BsaOptions& options,
               std::optional<std::uint64_t> pinned_seed)
      : Scheduler(opts), options_(options), pinned_seed_(pinned_seed) {}

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
    reg.add("bsa.eval.trials", t.eval_trials);
    out.counters = reg.snapshot();
    audit_result(out.schedule, costs, spec());
    return out;
  }

  core::BsaOptions options_;
  std::optional<std::uint64_t> pinned_seed_;
};

// --- list schedulers (DLS, EFT, MH, HEFT, PEFT) -----------------------------

class ListScheduler final : public Scheduler {
 public:
  using Fn = std::function<RankScheduleResult(
      const graph::TaskGraph&, const net::Topology&,
      const net::HeterogeneousCostModel&)>;

  ListScheduler(const SpecOptions& opts, Fn fn)
      : Scheduler(opts), fn_(std::move(fn)) {}

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
  Fn fn_;
};

// --- SA ---------------------------------------------------------------------

class SaScheduler final : public Scheduler {
 public:
  SaScheduler(const SpecOptions& opts, const SaOptions& options,
              std::optional<std::uint64_t> pinned_seed,
              std::unique_ptr<Scheduler> init)
      : Scheduler(opts),
        options_(options),
        pinned_seed_(pinned_seed),
        init_(std::move(init)) {}

  [[nodiscard]] SchedulerResult run(const graph::TaskGraph& g,
                                    const net::Topology& topo,
                                    const net::HeterogeneousCostModel& costs,
                                    std::uint64_t seed) const override {
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

 private:
  SaOptions options_;
  std::optional<std::uint64_t> pinned_seed_;
  std::unique_ptr<Scheduler> init_;
};

}  // namespace

void register_builtin_schedulers(SchedulerRegistry& registry) {
  // BSA and SA pin the caller's seed when seed= is given; DLS's seed
  // switches its tie-breaking on.
  const auto seed_option = [](std::string fallback, std::string summary) {
    return uint64_option("seed", std::move(fallback), std::move(summary));
  };
  const auto pinned_seed =
      [](const SpecOptions& opts,
         const OptionDoc& seed) -> std::optional<std::uint64_t> {
    if (!opts.has(seed)) return std::nullopt;
    return opts.uint64(seed);
  };

  {
    const OptionDoc gate =
        choice_option("gate", {"paper", "always"},
                      "which pivot tasks are examined for migration");
    const OptionDoc policy =
        choice_option("policy", {"guarded", "greedy"},
                      "makespan-guarded vs literal task-greedy migration");
    const OptionDoc prune = flag_option(
        "prune", "off", "cut cycles out of hop-extended message routes");
    const OptionDoc route =
        choice_option("route", {"incremental", "static", "ecube"},
                      "message route discipline");
    const OptionDoc seed = seed_option(
        "(caller seed)", "pin the critical-path tie-breaking seed");
    const OptionDoc serial = choice_option("serial", {"cpibob", "blevel"},
                                           "serial-injection order");
    const OptionDoc slots =
        choice_option("slots", {"insert", "append"},
                      "insertion-based vs append-only slot search");
    const OptionDoc sweeps =
        int_option("sweeps", 1, "1", "breadth-first pivot sweeps");
    const OptionDoc vip =
        flag_option("vip", "on", "equal-finish-time VIP migration rule");
    registry.add({
        "bsa",
        "BSA",
        "Bubble Scheduling and Allocation (the paper's algorithm)",
        {gate, policy, prune, route, seed, serial, slots, sweeps, vip},
        [=](const SpecOptions& opts) -> std::unique_ptr<Scheduler> {
          core::BsaOptions o;
          o.gate = opts.choice(gate) == "always"
                       ? core::GateRule::kAlwaysConsider
                       : core::GateRule::kPaper;
          o.policy = opts.choice(policy) == "greedy"
                         ? core::MigrationPolicy::kTaskGreedy
                         : core::MigrationPolicy::kMakespanGuarded;
          const std::string& r = opts.choice(route);
          o.routing = r == "static"  ? core::RouteDiscipline::kStaticShortestPath
                      : r == "ecube" ? core::RouteDiscipline::kEcube
                                     : core::RouteDiscipline::kIncremental;
          o.serialization = opts.choice(serial) == "blevel"
                                ? core::SerializationRule::kBLevel
                                : core::SerializationRule::kCpIbOb;
          o.max_sweeps = opts.integer(sweeps);
          o.vip_rule = opts.flag(vip);
          o.prune_route_cycles = opts.flag(prune);
          o.insertion_slots = opts.choice(slots) == "insert";
          return std::make_unique<BsaScheduler>(opts, o,
                                                pinned_seed(opts, seed));
        },
    });
  }
  {
    const OptionDoc seed = seed_option(
        "0", "non-zero randomises dynamic-level tie-breaking");
    registry.add({
        "dls",
        "DLS",
        "Dynamic Level Scheduling (Sih & Lee), the paper's comparison",
        {seed},
        [=](const SpecOptions& opts) -> std::unique_ptr<Scheduler> {
          baselines::DlsOptions o;
          o.seed = opts.uint64(seed);
          return std::make_unique<ListScheduler>(
              opts, [o](const graph::TaskGraph& g, const net::Topology& topo,
                        const net::HeterogeneousCostModel& costs) {
                return baselines::schedule_dls(g, topo, costs, o);
              });
        },
    });
  }
  // The list schedulers without options.
  const auto add_list = [&](std::string name, std::string display,
                            std::string summary, ListScheduler::Fn fn) {
    registry.add({
        std::move(name),
        std::move(display),
        std::move(summary),
        {},
        [fn = std::move(fn)](
            const SpecOptions& opts) -> std::unique_ptr<Scheduler> {
          return std::make_unique<ListScheduler>(opts, fn);
        },
    });
  };
  add_list("eft", "EFT (oblivious)",
           "contention-oblivious earliest-finish-time list scheduler",
           schedule_eft_oblivious);
  add_list("mh", "MH",
           "Mapping-Heuristic-style contention-aware list scheduler",
           schedule_mh);
  add_list("heft", "HEFT",
           "upward-rank list scheduler (Topcuoglu et al.) with contended "
           "routing",
           schedule_heft);
  add_list("peft", "PEFT",
           "optimistic-cost-table list scheduler (Arabnejad & Barbosa) with "
           "contended routing",
           schedule_peft);
  {
    // "sa" is not an accepted init, so there is no self-nesting.
    const OptionDoc init =
        choice_option("init", {"heft", "peft", "bsa", "dls", "eft", "mh"},
                      "scheduler whose result is refined");
    const OptionDoc iters =
        int_option("iters", 0, "100",
                   "proposed migration moves (0 returns the init schedule "
                   "bit-identically)");
    const OptionDoc seed = seed_option(
        "(caller seed)",
        "pin the move/acceptance stream (also passed to init)");
    const OptionDoc temp0 = real_option(
        "temp0", 0.0, "0.05",
        "initial temperature as a fraction of the init makespan");
    registry.add({
        "sa",
        "SA",
        "simulated-annealing refinement of an init scheduler's result "
        "(transactional O(touched) move evaluation)",
        {init, iters, seed, temp0},
        [=](const SpecOptions& opts) -> std::unique_ptr<Scheduler> {
          SaOptions o;
          o.iters = opts.integer(iters);
          o.temp0 = opts.real(temp0);
          // Factories run at resolve time, after the registry is fully
          // built, so resolving the init scheduler here cannot recurse
          // into registration.
          return std::make_unique<SaScheduler>(
              opts, o, pinned_seed(opts, seed),
              SchedulerRegistry::global().resolve(opts.choice(init)));
        },
    });
  }
}

}  // namespace bsa::sched
