#include "exp/experiment.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>

#include "common/check.hpp"
#include "common/spec.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"

namespace bsa::exp {

RunOutcome run_algorithm(const std::string& spec, const graph::TaskGraph& g,
                         const net::Topology& topo,
                         const net::HeterogeneousCostModel& costs,
                         std::uint64_t seed) {
  return run_algorithm(spec, g, topo, costs, seed, obs::Hooks{});
}

RunOutcome run_algorithm(const std::string& spec, const graph::TaskGraph& g,
                         const net::Topology& topo,
                         const net::HeterogeneousCostModel& costs,
                         std::uint64_t seed, const obs::Hooks& hooks) {
  const std::unique_ptr<sched::Scheduler> scheduler =
      sched::SchedulerRegistry::global().resolve(spec);
  sched::SchedulerResult result =
      scheduler->run_observed(g, topo, costs, seed, hooks);
  RunOutcome out;
  out.wall_ms = result.total_ms();
  out.schedule_length = result.makespan();
  {
    obs::Span span(hooks.tracer, "validate", "runtime", hooks.trace_tid);
    out.valid = sched::validate(result.schedule, costs).ok();
  }
  out.counters = std::move(result.counters);
  return out;
}

const std::vector<std::string>& topology_kinds() {
  static const std::vector<std::string> kinds{
      "ring", "hypercube", "clique", "mesh", "random", "linear", "star"};
  return kinds;
}

void check_topology(const std::string& kind, int procs) {
  BSA_REQUIRE(std::find(topology_kinds().begin(), topology_kinds().end(),
                        kind) != topology_kinds().end(),
              "unknown topology '" << kind << "'; registered: "
                                   << join_list(topology_kinds(), ", "));
  const int min_procs = kind == "random" ? 3 : 2;
  BSA_REQUIRE(procs >= min_procs, kind << " topology needs >= " << min_procs
                                       << " processors, got " << procs);
  BSA_REQUIRE(kind != "hypercube" ||
                  (std::has_single_bit(static_cast<unsigned>(procs)) &&
                   procs <= (1 << 20)),
              "hypercube topology needs a power-of-two processor count "
              "<= 2^20, got "
                  << procs);
}

net::Topology make_topology(const std::string& kind, int procs,
                            std::uint64_t seed) {
  check_topology(kind, procs);
  if (kind == "ring") return net::Topology::ring(procs);
  if (kind == "hypercube") {
    return net::Topology::hypercube(
        std::countr_zero(static_cast<unsigned>(procs)));
  }
  if (kind == "clique") return net::Topology::clique(procs);
  if (kind == "mesh") {
    // Most-square factorisation: the largest divisor <= sqrt(procs).
    int rows = 1;
    for (int r = 1; r * r <= procs; ++r) {
      if (procs % r == 0) rows = r;
    }
    return net::Topology::mesh(rows, procs / rows);
  }
  if (kind == "random") {
    // Paper: degrees 2..8. Cap the degree below the processor count so
    // small test networks remain constructible.
    const int max_degree = std::min(8, procs - 1);
    return net::Topology::random(procs, 2, max_degree, seed);
  }
  if (kind == "linear") return net::Topology::linear(procs);
  return net::Topology::star(procs);
}

const std::vector<std::string>& paper_topologies() {
  static const std::vector<std::string> kinds{"ring", "hypercube", "clique",
                                              "random"};
  return kinds;
}

net::HeterogeneousCostModel make_cost_model(const graph::TaskGraph& g,
                                            const net::Topology& topo,
                                            int het_lo, int het_hi,
                                            int link_lo, int link_hi,
                                            bool per_pair,
                                            std::uint64_t seed) {
  if (per_pair) {
    return net::HeterogeneousCostModel::uniform(g, topo, het_lo, het_hi,
                                                link_lo, link_hi, seed);
  }
  return net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, het_lo, het_hi, link_lo, link_hi, seed);
}

bool full_benchmarks_requested() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at driver
  // startup; nothing in this process calls setenv.
  const char* v = std::getenv("BSA_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

std::vector<int> paper_sizes() {
  if (full_benchmarks_requested()) {
    return {50, 100, 150, 200, 250, 300, 350, 400, 450, 500};
  }
  return {50, 150, 250, 350, 500};
}

const std::vector<double>& paper_granularities() {
  static const std::vector<double> gs{0.1, 1.0, 10.0};
  return gs;
}

}  // namespace bsa::exp
