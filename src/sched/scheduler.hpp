#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/spec.hpp"
#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "obs/counters.hpp"
#include "obs/hooks.hpp"
#include "sched/schedule.hpp"

/// \file scheduler.hpp
/// The unified scheduling surface: a polymorphic Scheduler interface and
/// SchedulerRegistry, the bsa::SpecRegistry (common/spec.hpp) that
/// resolves *spec strings* into configured scheduler instances.
///
/// Spec grammar (names, keys and values are case-insensitive; shared with
/// the workload registry — full reference: docs/SPECS.md):
///
///   spec    := name [ ":" option ("," option)* ]
///   option  := key "=" value
///
///   "bsa"                                  default BSA
///   "bsa:gate=always,route=static"         BSA ablation variant
///   "dls:seed=7"                           DLS with randomised tie-breaks
///
/// Each algorithm declares each of its options once (key, type with its
/// bound or choices, default, summary) in builtin_schedulers.cpp; the
/// registry validates a spec against those declarations and builds its
/// canonical form — the lowercase name followed by the non-default
/// options sorted by key with canonical value spellings — and the
/// adapter only maps the declared values onto the algorithm's options.
/// Everything that dispatches on an algorithm (experiment sweeps, figure
/// benches, bsa_tool, JSONL sinks) goes through this surface; adding an
/// algorithm means registering one factory, not widening an enum in four
/// drivers (see docs/DESIGN_API.md).
///
/// Contracts relied on by the parallel runtime:
///  * determinism — resolving the same spec twice yields instances whose
///    run() produces bit-identical schedules for identical inputs and
///    seeds, at any thread count;
///  * thread-safety — Scheduler instances are immutable after
///    construction and one instance may serve concurrent run() calls;
///    SchedulerRegistry::global() is initialised once and only read
///    afterwards, so lookups need no locking.

namespace bsa::sched {

/// Outcome of one Scheduler::run: the schedule plus uniform metadata.
struct SchedulerResult {
  explicit SchedulerResult(Schedule s) : schedule(std::move(s)) {}

  Schedule schedule;
  /// Wall-clock time per algorithm phase, in execution order. Every
  /// scheduler reports at least {"schedule", <total ms>}.
  std::vector<std::pair<std::string, double>> phase_ms;
  /// Deterministic algorithm counters (e.g. "bsa.migrations"), sorted by
  /// name — an obs::Registry snapshot, uniform to log and to aggregate,
  /// no per-algorithm result types. Counters are a pure function of the
  /// run's inputs, never of timing, so they are bit-identical at any
  /// thread count (counter taxonomy: docs/DESIGN_OBS.md).
  obs::CounterSnapshot counters;

  [[nodiscard]] Time makespan() const { return schedule.makespan(); }
  [[nodiscard]] double total_ms() const {
    double sum = 0;
    for (const auto& [_, ms] : phase_ms) sum += ms;
    return sum;
  }
};

/// A configured scheduling algorithm. Instances are immutable and
/// thread-safe: one instance may serve concurrent run() calls (the
/// parallel sweep runtime relies on this). spec(), display_name() and
/// display_label() come from bsa::SpecInstance.
class Scheduler : public SpecInstance {
 public:
  using SpecInstance::SpecInstance;

  /// Schedule `g` onto `topo` under `costs`. `seed` is the caller's
  /// tie-breaking seed (experiment sweeps derive it per instance); a
  /// spec-pinned `seed=` option takes precedence where supported.
  [[nodiscard]] virtual SchedulerResult run(
      const graph::TaskGraph& g, const net::Topology& topo,
      const net::HeterogeneousCostModel& costs,
      std::uint64_t seed = 0) const = 0;

  /// run() with observability hooks attached. The default implementation
  /// wraps run() in one whole-run span named after the algorithm;
  /// schedulers with internal instrumentation (BSA) override it to
  /// thread the hooks into their phases and decision points. Hooks only
  /// observe: for any hooks, run_observed computes the same result as
  /// run(), and with default (null) hooks it costs one branch.
  [[nodiscard]] virtual SchedulerResult run_observed(
      const graph::TaskGraph& g, const net::Topology& topo,
      const net::HeterogeneousCostModel& costs, std::uint64_t seed,
      const obs::Hooks& hooks) const;
};

/// --- post-run auditing (the dynamic backstop of the static wall) -------
///
/// When auditing is enabled, every built-in Scheduler adapter passes its
/// finished schedule through sched::validate() and throws InvariantError
/// on any violation — so a scheduling bug fails the run that produced it
/// instead of poisoning downstream tables. The default is the BSA_AUDIT
/// compile option (on in the CI audit job, off in release builds, where
/// validation would roughly double small-run cost); tests flip it at
/// runtime. Reading the flag is one relaxed atomic load per run.
void set_audit(bool on) noexcept;
[[nodiscard]] bool audit_enabled() noexcept;

/// Validate `s` and throw InvariantError listing every violation when
/// auditing is enabled; no-op otherwise. `label` names the producing
/// algorithm in the message (adapters pass their canonical spec).
void audit_result(const Schedule& s, const net::HeterogeneousCostModel& costs,
                  const std::string& label);

/// The spec grammar (ParsedSpec, SpecOptions, option declarations) is
/// shared with the workload registry — see common/spec.hpp. The sched
/// aliases keep existing call sites (`sched::parse_spec`, ...) working.
using bsa::ascii_lower;
using bsa::ParsedSpec;
using bsa::SpecOptions;

/// Parse a scheduler spec string. Throws PreconditionError on grammar
/// errors (empty name, missing '=', duplicate keys, stray separators).
[[nodiscard]] inline ParsedSpec parse_spec(const std::string& spec) {
  return bsa::parse_spec(spec, "scheduler");
}

/// Registry of named scheduler factories. `global()` holds the built-in
/// algorithms (bsa, dls, eft, mh, heft, peft, sa); local instances can be
/// built in tests.
using SchedulerRegistry = SpecRegistry<Scheduler>;

/// Register the built-in algorithms (bsa, dls, eft, mh, heft, peft, sa) —
/// defined in builtin_schedulers.cpp, invoked once by
/// SchedulerRegistry::global().
void register_builtin_schedulers(SchedulerRegistry& registry);

}  // namespace bsa::sched

namespace bsa {
template <>
struct RegistryTraits<sched::Scheduler> {
  static constexpr const char* kKind = "scheduler";
  static void register_builtins(sched::SchedulerRegistry& registry) {
    sched::register_builtin_schedulers(registry);
  }
};
}  // namespace bsa
