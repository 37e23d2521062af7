#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "obs/counters.hpp"
#include "obs/hooks.hpp"

/// \file experiment.hpp
/// Shared harness for the paper-reproduction benchmarks: the topology and
/// cost-model factories and experiment-cell aggregation. Instances come
/// from the workloads::WorkloadRegistry; algorithm dispatch goes through
/// the sched::SchedulerRegistry spec strings ("bsa", "dls:seed=7", ...).

namespace bsa::exp {

struct RunOutcome {
  Time schedule_length = 0;
  double wall_ms = 0;   ///< algorithm wall-clock time
  bool valid = false;   ///< full invariant validation result
  /// Deterministic algorithm counters (SchedulerResult::counters).
  obs::CounterSnapshot counters;
};

/// Resolve a scheduler spec against the global registry, run it on one
/// instance and validate the schedule. `seed` is the tie-breaking seed
/// handed to Scheduler::run (spec-pinned seeds take precedence). The
/// hooks overload threads observability hooks into the scheduler and
/// wraps validation in a span; hooks only observe — same outcome for
/// any hooks.
[[nodiscard]] RunOutcome run_algorithm(const std::string& spec,
                                       const graph::TaskGraph& g,
                                       const net::Topology& topo,
                                       const net::HeterogeneousCostModel& costs,
                                       std::uint64_t seed);
[[nodiscard]] RunOutcome run_algorithm(const std::string& spec,
                                       const graph::TaskGraph& g,
                                       const net::Topology& topo,
                                       const net::HeterogeneousCostModel& costs,
                                       std::uint64_t seed,
                                       const obs::Hooks& hooks);

/// Every topology kind make_topology builds (the paper's ring, hypercube,
/// clique and random, plus mesh, linear and star).
[[nodiscard]] const std::vector<std::string>& topology_kinds();

/// Check that make_topology(kind, procs, ...) can build: the kind is in
/// topology_kinds(), procs >= 2 (>= 3 for "random"), and a hypercube
/// has a power-of-two procs <= 2^20. O(1), builds nothing; throws
/// PreconditionError naming the kind.
void check_topology(const std::string& kind, int procs);

/// Build one topology of `procs` processors: "ring", "hypercube",
/// "clique" and "random" (degrees 2..8, seeded) are the paper's
/// experiment topologies; "mesh" is the most-square 2-D grid, "linear" a
/// chain and "star" a hub with spokes. Runs check_topology first.
[[nodiscard]] net::Topology make_topology(const std::string& kind, int procs,
                                          std::uint64_t seed);
/// The paper's four kinds in its figure order.
[[nodiscard]] const std::vector<std::string>& paper_topologies();

/// The experiments' heterogeneity model: execution factors
/// U[het_lo,het_hi] and link factors U[link_lo,link_hi], one per
/// processor/link (`per_pair == false`, DESIGN.md §3 note 9) or one per
/// (task,processor) / (message,link) pair (the paper's §2.1 literal
/// model). The paper's sweeps use the same range for both.
[[nodiscard]] net::HeterogeneousCostModel make_cost_model(
    const graph::TaskGraph& g, const net::Topology& topo, int het_lo,
    int het_hi, int link_lo, int link_hi, bool per_pair, std::uint64_t seed);

/// Mean accumulator for an experiment cell.
struct CellMean {
  double sum = 0;
  int count = 0;
  void add(double v) {
    sum += v;
    ++count;
  }
  [[nodiscard]] double mean() const { return count == 0 ? 0 : sum / count; }
};

/// Environment-controlled scale factor: benches default to a fast
/// configuration and honour BSA_BENCH_FULL=1 for the paper's full sweep.
[[nodiscard]] bool full_benchmarks_requested();

/// Sizes 50..500 step 50 (full) or a trimmed subset (quick).
[[nodiscard]] std::vector<int> paper_sizes();
/// Granularities {0.1, 1, 10} as in the paper.
[[nodiscard]] const std::vector<double>& paper_granularities();

}  // namespace bsa::exp
