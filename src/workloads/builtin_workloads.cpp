#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "workloads/costs.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/regular.hpp"
#include "workloads/workload_registry.hpp"

/// \file builtin_workloads.cpp
/// Adapters that put the library's task-graph generators — the paper's
/// regular applications, the layered random DAGs and the application
/// suite (FFT butterfly, fork-join, series-parallel, 2-D stencil, linear
/// pipeline) — behind the unified workloads::Workload interface, and
/// their registration with the global WorkloadRegistry. The existing free
/// functions (workloads::fft, workloads::gaussian_elimination, ...)
/// remain the implementation; the adapters only translate options,
/// derive unpinned structure parameters from the caller's target size,
/// and assemble canonical specs.

namespace bsa::workloads {
namespace {

/// Pinned-or-absent structure parameters, in the registration's key
/// order. A pinned option fixes the dimension; an absent one is derived
/// from the caller's target task count by the workload's scale function.
using Pinned = std::vector<std::optional<int>>;

/// Resolve the concrete dimensions (same order as the keys) for a target
/// task count.
using ScaleFn = std::vector<int> (*)(const Pinned& pinned, int target);

/// Build the graph from resolved dimensions and cost parameters.
using BuildFn = graph::TaskGraph (*)(const std::vector<int>& dims,
                                     const CostParams& costs);

/// Extra resolve-time validation of pinned options (may be null).
using CheckFn = void (*)(const SpecOptions& opts);

/// One generator behind the Workload interface. All builtin workloads
/// share the ccr= / seed= handling: a pinned CCR (communication-to-
/// computation ratio, i.e. 1/granularity) overrides the caller's
/// granularity axis, a pinned seed overrides the caller's seed.
class GenericWorkload final : public Workload {
 public:
  /// `constant_defaults[i]` >= 0 marks a structure option whose unpinned
  /// value is a constant (not derived from the target size): pinning it
  /// at that constant is a no-op and canonicalises away, like a
  /// default-valued scheduler option.
  GenericWorkload(std::string name, std::string display,
                  std::vector<std::string> keys, std::vector<int> min_values,
                  std::vector<int> constant_defaults, ScaleFn scale,
                  BuildFn build, const SpecOptions& opts)
      : name_(std::move(name)),
        display_(std::move(display)),
        keys_(std::move(keys)),
        scale_(scale),
        build_(build) {
    std::vector<std::string> parts;
    pinned_.resize(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (!opts.has(keys_[i])) continue;
      pinned_[i] = opts.get_int(keys_[i], 0, min_values[i]);
      if (constant_defaults[i] >= 0 && *pinned_[i] == constant_defaults[i]) {
        continue;
      }
      parts.push_back(keys_[i] + "=" + std::to_string(*pinned_[i]));
    }
    if (opts.has("ccr")) {
      ccr_ = opts.get_double("ccr", 1.0, 0.0);
      BSA_REQUIRE(comm_costs_in_range(1.0 / *ccr_),
                  "workload '" << name_ << "': option 'ccr' = " << *ccr_
                               << " makes communication costs overflow "
                                  "(the largest draw must stay below 2^63)");
      parts.push_back("ccr=" + canonical_double(*ccr_));
    }
    if (opts.has("seed")) {
      seed_ = opts.get_uint64("seed", 0);
      parts.push_back("seed=" + std::to_string(*seed_));
    }
    spec_ = canonical_spec(name_, std::move(parts));
  }

  [[nodiscard]] std::string spec() const override { return spec_; }
  [[nodiscard]] std::string display_name() const override { return display_; }

  [[nodiscard]] graph::TaskGraph generate(
      int target_tasks, double granularity,
      std::uint64_t seed) const override {
    BSA_REQUIRE(target_tasks >= 1, "workload '" << name_
                                                << "': target task count "
                                                << target_tasks << " < 1");
    CostParams cp;
    cp.granularity = ccr_.has_value() ? 1.0 / *ccr_ : granularity;
    cp.seed = seed_.value_or(seed);
    BSA_REQUIRE(comm_costs_in_range(cp.granularity),
                "workload '" << name_ << "': granularity " << cp.granularity
                             << " must be finite, > 0 and keep communication "
                                "costs below 2^63");
    return build_(scale_(pinned_, target_tasks), cp);
  }

 private:
  std::string name_;
  std::string display_;
  std::vector<std::string> keys_;
  Pinned pinned_;
  std::optional<double> ccr_;
  std::optional<std::uint64_t> seed_;
  ScaleFn scale_;
  BuildFn build_;
  std::string spec_;
};

/// Shared ccr= / seed= option docs appended to every registration.
void append_common_options(
    std::vector<WorkloadRegistry::OptionDoc>* options) {
  options->push_back({"ccr", "finite number > 0", "(1/granularity axis)",
                      "pin the communication-to-computation ratio "
                      "(granularity = 1/ccr)"});
  options->push_back({"seed", "unsigned integer", "(caller seed)",
                      "pin the cost/structure RNG seed"});
}

/// Registration helper: entry boilerplate plus the shared options.
/// `constant_defaults[i]` < 0 marks a structure option that is scaled
/// from the target size when unpinned.
WorkloadRegistry::Entry make_entry(
    std::string name, std::string display, std::string summary,
    std::vector<WorkloadRegistry::OptionDoc> structure_options,
    std::vector<int> min_values, std::vector<int> constant_defaults,
    ScaleFn scale, BuildFn build, CheckFn check = nullptr) {
  std::vector<std::string> keys;
  keys.reserve(structure_options.size());
  for (const auto& doc : structure_options) keys.push_back(doc.name);
  append_common_options(&structure_options);
  WorkloadRegistry::Entry entry;
  entry.name = name;
  entry.display_name = std::move(display);
  entry.summary = std::move(summary);
  entry.options = std::move(structure_options);
  entry.factory = [name, display = entry.display_name, keys,
                   min_values = std::move(min_values),
                   constant_defaults = std::move(constant_defaults), scale,
                   build,
                   check](const SpecOptions& opts) -> std::unique_ptr<Workload> {
    if (check != nullptr) check(opts);
    return std::make_unique<GenericWorkload>(name, display, keys, min_values,
                                             constant_defaults, scale, build,
                                             opts);
  };
  return entry;
}

int round_positive(double v) {
  return std::max(1, static_cast<int>(std::lround(v)));
}

}  // namespace

void register_builtin_workloads(WorkloadRegistry& registry) {
  using OptionDoc = WorkloadRegistry::OptionDoc;

  registry.add(make_entry(
      "cholesky", "Tiled Cholesky",
      "right-looking tiled Cholesky factorisation (POTRF/TRSM/SYRK/GEMM)",
      {OptionDoc{"tiles", "integer >= 2", "(scaled to target)",
                 "tile rows of the factored matrix"}},
      {2}, {-1},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0] : cholesky_tiles_for(target)};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return cholesky(d[0], cp);
      }));

  registry.add(make_entry(
      "fft", "FFT butterfly",
      "FFT butterfly: log2(points)+1 rows of `points` tasks with "
      "stride-2^s exchanges",
      {OptionDoc{"points", "power of two >= 2", "(scaled to target)",
                 "transform size (rows have `points` tasks each)"}},
      {2}, {-1},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0] : fft_points_for(target)};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return fft(d[0], cp);
      },
      [](const SpecOptions& opts) {
        if (!opts.has("points")) return;
        const int points = opts.get_int("points", 0, 2);
        BSA_REQUIRE((points & (points - 1)) == 0,
                    "workload 'fft': option 'points' expects a power of "
                    "two >= 2, got "
                        << points);
      }));

  registry.add(make_entry(
      "forkjoin", "Fork-join",
      "`depth` fork-join stages of `width` parallel tasks between joins "
      "(Wang & Sinnen-style)",
      {OptionDoc{"depth", "integer >= 1", "(scaled to target)",
                 "number of fork-join stages"},
       OptionDoc{"width", "integer >= 1", "4", "parallel tasks per stage"}},
      {1, 1}, {-1, 4},
      [](const Pinned& p, int target) {
        const int width = p[1] ? *p[1] : 4;
        // task count = depth*(width+1) + 1
        const int depth =
            p[0] ? *p[0]
                 : round_positive(static_cast<double>(target - 1) /
                                  (width + 1));
        return std::vector<int>{depth, width};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return fork_join(d[0], d[1], cp);
      }));

  registry.add(make_entry(
      "gauss", "Gaussian elimination",
      "Gaussian elimination, kji form: pivot task feeds the update tasks "
      "of each elimination step",
      {OptionDoc{"n", "integer >= 2", "(scaled to target)",
                 "matrix dimension (n(n+1)/2 - 1 tasks)"}},
      {2}, {-1},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0]
                                     : gaussian_elimination_dim_for(target)};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return gaussian_elimination(d[0], cp);
      }));

  registry.add(make_entry(
      "laplace", "Laplace solver",
      "Laplace equation solver: n x n wavefront lattice (Figures 3/5 "
      "suite)",
      {OptionDoc{"n", "integer >= 2", "(scaled to target)",
                 "lattice dimension (n^2 tasks)"}},
      {2}, {-1},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0] : laplace_dim_for(target)};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return laplace(d[0], cp);
      }));

  registry.add(make_entry(
      "lu", "LU decomposition",
      "right-looking tiled LU decomposition (GETRF/TRSM/GEMM; Figures "
      "3/5 suite)",
      {OptionDoc{"tiles", "integer >= 2", "(scaled to target)",
                 "tile rows of the factored matrix"}},
      {2}, {-1},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0]
                                     : lu_decomposition_dim_for(target)};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return lu_decomposition(d[0], cp);
      }));

  registry.add(make_entry(
      "mva", "Mean value analysis",
      "mean value analysis: per-level station tasks feeding an "
      "aggregation task that fans out to the next level",
      {OptionDoc{"levels", "integer >= 1", "(scaled to target)",
                 "population levels"},
       OptionDoc{"stations", "integer >= 1", "8",
                 "queueing stations per level"}},
      {1, 1}, {-1, 8},
      [](const Pinned& p, int target) {
        const int stations = p[1] ? *p[1] : 8;
        const int levels = p[0] ? *p[0] : mva_levels_for(target, stations);
        return std::vector<int>{levels, stations};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return mean_value_analysis(d[0], d[1], cp);
      }));

  registry.add(make_entry(
      "pipeline", "Linear pipeline",
      "linear systolic pipeline: `stages` stages of `width` lanes with "
      "same-lane and diagonal forwarding",
      {OptionDoc{"stages", "integer >= 1 (>= 2 when width > 1)",
                 "(scaled to target)", "pipeline stages"},
       OptionDoc{"width", "integer >= 1", "4", "parallel lanes"}},
      {1, 1}, {-1, 4},
      [](const Pinned& p, int target) {
        const int width = p[1] ? *p[1] : 4;
        const int stages =
            p[0] ? *p[0]
                 : std::max(2, round_positive(static_cast<double>(target) /
                                              width));
        return std::vector<int>{stages, width};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return pipeline(d[0], d[1], cp);
      },
      [](const SpecOptions& opts) {
        // Fail at resolve time (the registry's fail-up-front contract),
        // not mid-sweep from a worker thread.
        const int width = opts.get_int("width", 4, 1);
        BSA_REQUIRE(opts.get_int("stages", 2, 1) >= 2 || width == 1,
                    "workload 'pipeline': option 'stages' expects an "
                    "integer >= 2 when width > 1 (connectivity)");
      }));

  registry.add(make_entry(
      "random", "Random layered DAG",
      "layered random DAG with enforced connectivity (Figures 4/6/7 "
      "suite)",
      {OptionDoc{"n", "integer >= 2", "(target size)", "exact task count"},
       OptionDoc{"preds", "integer >= 1", "3",
                 "max predecessors drawn per non-entry task"}},
      {2, 1}, {-1, 3},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0] : std::max(2, target),
                                p[1] ? *p[1] : 3};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        RandomDagParams params;
        params.num_tasks = d[0];
        params.granularity = cp.granularity;
        params.max_preds = d[1];
        params.seed = cp.seed;
        return random_layered_dag(params);
      }));

  registry.add(make_entry(
      "sp", "Series-parallel",
      "recursive two-terminal series-parallel decomposition (Wilhelm & "
      "Pionteck-style)",
      {OptionDoc{"depth", "integer in [1, 14]", "(scaled to target)",
                 "expansion rounds (~2.5x edges per round)"},
       OptionDoc{"branch", "integer in [2, 32]", "3",
                 "max branches of a parallel composition"}},
      {1, 2}, {-1, 3},
      [](const Pinned& p, int target) {
        // Expected node count grows ~2.5x per round; invert for the
        // round count and clamp to the generator's accepted range.
        const int depth =
            p[0] ? *p[0]
                 : std::min(14, std::max(1, static_cast<int>(std::lround(
                                                std::log(0.8 * target) /
                                                std::log(2.5)))));
        return std::vector<int>{depth, p[1] ? *p[1] : 3};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return series_parallel(d[0], d[1], cp);
      },
      [](const SpecOptions& opts) {
        BSA_REQUIRE(opts.get_int("depth", 1, 1) <= 14,
                    "workload 'sp': option 'depth' expects an integer in "
                    "[1, 14] (expansion is ~2.5x per round)");
        BSA_REQUIRE(opts.get_int("branch", 2, 2) <= 32,
                    "workload 'sp': option 'branch' expects an integer "
                    "in [2, 32]");
      }));

  registry.add(make_entry(
      "stencil", "2-D Laplace stencil",
      "iterated 5-point Jacobi stencil over a rows x cols grid",
      {OptionDoc{"cols", "integer >= 1", "(scaled to target)",
                 "grid columns"},
       OptionDoc{"iters", "integer >= 2 (1 only for a 1x1 grid)", "4",
                 "Jacobi sweeps"},
       OptionDoc{"rows", "integer >= 1", "(scaled to target)", "grid rows"}},
      {1, 1, 1}, {-1, 4, -1},
      [](const Pinned& p, int target) {
        const int iters = p[1] ? *p[1] : 4;
        const double cells =
            std::max(1.0, static_cast<double>(target) / iters);
        int rows, cols;
        if (p[2] && p[0]) {
          rows = *p[2];
          cols = *p[0];
        } else if (p[2]) {
          rows = *p[2];
          cols = round_positive(cells / rows);
        } else if (p[0]) {
          cols = *p[0];
          rows = round_positive(cells / cols);
        } else {
          rows = std::max(2, static_cast<int>(std::lround(std::sqrt(cells))));
          cols = round_positive(cells / rows);
        }
        return std::vector<int>{cols, iters, rows};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return stencil_2d(d[2], d[0], d[1], cp);
      },
      [](const SpecOptions& opts) {
        // A single sweep over more than one cell would be edgeless and
        // disconnected; unpinned rows/cols scale to > 1 cell.
        BSA_REQUIRE(opts.get_int("iters", 4, 1) >= 2 ||
                        (opts.get_int("rows", 2, 1) == 1 &&
                         opts.get_int("cols", 2, 1) == 1),
                    "workload 'stencil': option 'iters' expects an "
                    "integer >= 2 unless rows=1,cols=1 (connectivity)");
      }));
}

}  // namespace bsa::workloads
