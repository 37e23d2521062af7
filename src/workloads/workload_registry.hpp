#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "graph/task_graph.hpp"

/// \file workload_registry.hpp
/// The unified workload surface: a polymorphic Workload interface and
/// WorkloadRegistry, the bsa::SpecRegistry (common/spec.hpp) that
/// resolves *workload spec strings* into configured task-graph
/// generators — the same registry class as the scheduler registry
/// (sched/scheduler.hpp), with the same grammar, canonicalisation and
/// error listings. Each workload declares each of its options once
/// (key, type with its bound, default, summary) in
/// builtin_workloads.cpp; the adapter only maps the declared values
/// onto the generator's dimensions.
///
/// Spec examples (names, keys and values are case-insensitive; full
/// reference: docs/SPECS.md):
///
///   "fft:points=64,ccr=0.5"      FFT butterfly, pinned size and CCR
///   "forkjoin:width=8,depth=5"   fork-join, 8-wide, 5 stages
///   "sp:depth=6,seed=3"          series-parallel, pinned seed
///   "stencil:rows=8,cols=8,iters=4"
///   "pipeline:stages=10,width=4"
///   "gauss:n=12"                 Gaussian elimination, 12x12 matrix
///   "random"                     layered random DAG (Figures 4/6/7)
///
/// Contracts relied on by the parallel runtime and the tests:
///  * determinism — generate() is a pure function of
///    (canonical spec, target_tasks, granularity, seed): repeated calls,
///    repeated resolves and any thread count produce bit-identical
///    graphs;
///  * thread-safety — Workload instances are immutable after
///    construction and may serve concurrent generate() calls;
///    WorkloadRegistry::global() is initialised once and only read
///    afterwards;
///  * scalability — structure options left unset are derived from the
///    caller's target task count (the sweep axis), so one spec can serve
///    a whole size sweep; pinning the structure option fixes the graph
///    size regardless of the axis.

namespace bsa::workloads {

/// A configured task-graph generator. spec(), display_name() and
/// display_label() come from bsa::SpecInstance.
class Workload : public SpecInstance {
 public:
  using SpecInstance::SpecInstance;

  /// Generate the task graph. `target_tasks` sizes workloads whose
  /// structure options are unset (a pinned structure option wins);
  /// `granularity` (avg exec / avg comm, §3 of the paper) and `seed`
  /// are the sweep-axis values, overridden by pinned ccr= / seed=
  /// options. Deterministic in all arguments.
  [[nodiscard]] virtual graph::TaskGraph generate(
      int target_tasks, double granularity, std::uint64_t seed) const = 0;
};

/// Registry of named workload factories. `global()` holds the built-in
/// generators; local instances can be built in tests.
using WorkloadRegistry = SpecRegistry<Workload>;

/// Register the built-in workloads (cholesky, fft, forkjoin, gauss,
/// laplace, lu, mva, pipeline, random, sp, stencil) — defined in
/// builtin_workloads.cpp, invoked once by WorkloadRegistry::global().
void register_builtin_workloads(WorkloadRegistry& registry);

}  // namespace bsa::workloads

namespace bsa {
template <>
struct RegistryTraits<workloads::Workload> {
  static constexpr const char* kKind = "workload";
  static void register_builtins(workloads::WorkloadRegistry& registry) {
    workloads::register_builtin_workloads(registry);
  }
};
}  // namespace bsa
