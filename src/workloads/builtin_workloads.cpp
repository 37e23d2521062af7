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
/// remain the implementation. Each option is declared once (key, lower
/// bound, default or "(scaled to target)", summary); the registry
/// validates specs against the declarations and builds the canonical
/// spec, and the adapters only map the declared values onto the
/// generator's dimensions, deriving unpinned ones from the caller's
/// target size.

namespace bsa::workloads {
namespace {

/// Structure values in declaration order: a pinned or constant-default
/// option holds its value, a scaled option left unset is empty and is
/// derived from the caller's target task count by the scale function.
using Pinned = std::vector<std::optional<int>>;

/// Resolve the concrete dimensions (same order as the options) for a
/// target task count.
using ScaleFn = std::vector<int> (*)(const Pinned& pinned, int target);

/// Build the graph from resolved dimensions and cost parameters.
using BuildFn = graph::TaskGraph (*)(const std::vector<int>& dims,
                                     const CostParams& costs);

/// Resolve-time checks beyond the declared lower bounds (may be null).
using CheckFn = void (*)(const Pinned& pinned);

/// Default text of a structure option derived from the target size.
constexpr const char* kScaled = "(scaled to target)";

/// The options every workload shares: a pinned CCR (communication-to-
/// computation ratio, i.e. 1/granularity) overrides the caller's
/// granularity axis, a pinned seed overrides the caller's seed.
const OptionDoc& ccr_option() {
  static const OptionDoc o = real_option(
      "ccr", 0.0, "(1/granularity axis)",
      "pin the communication-to-computation ratio (granularity = 1/ccr)");
  return o;
}
const OptionDoc& seed_option() {
  static const OptionDoc o = uint64_option(
      "seed", "(caller seed)", "pin the cost/structure RNG seed");
  return o;
}

/// One generator behind the Workload interface.
class GenericWorkload final : public Workload {
 public:
  GenericWorkload(const SpecOptions& opts, Pinned pinned, ScaleFn scale,
                  BuildFn build)
      : Workload(opts),
        name_(opts.name()),
        pinned_(std::move(pinned)),
        scale_(scale),
        build_(build) {
    if (opts.has(ccr_option())) {
      ccr_ = opts.real(ccr_option());
      BSA_REQUIRE(comm_costs_in_range(1.0 / *ccr_),
                  "workload '" << name_ << "': option '"
                               << ccr_option().name << "' = " << *ccr_
                               << " makes communication costs overflow "
                                  "(the largest draw must stay below 2^63)");
    }
    if (opts.has(seed_option())) seed_ = opts.uint64(seed_option());
  }

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
  Pinned pinned_;
  std::optional<double> ccr_;
  std::optional<std::uint64_t> seed_;
  ScaleFn scale_;
  BuildFn build_;
};

/// Registration helper: the entry with the shared options appended, and
/// a factory reading the structure options into Pinned.
WorkloadRegistry::Entry make_entry(std::string name, std::string display,
                                   std::string summary,
                                   std::vector<OptionDoc> structure,
                                   ScaleFn scale, BuildFn build,
                                   CheckFn check = nullptr) {
  WorkloadRegistry::Entry entry{std::move(name), std::move(display),
                                std::move(summary), structure, nullptr};
  entry.options.push_back(ccr_option());
  entry.options.push_back(seed_option());
  entry.factory = [structure = std::move(structure), scale, build,
                   check](const SpecOptions& opts) -> std::unique_ptr<Workload> {
    Pinned pinned;
    pinned.reserve(structure.size());
    for (const OptionDoc& o : structure) {
      pinned.push_back(opts.has(o) ? std::optional<int>(opts.integer(o))
                                   : std::nullopt);
    }
    if (check != nullptr) check(pinned);
    return std::make_unique<GenericWorkload>(opts, std::move(pinned), scale,
                                             build);
  };
  return entry;
}

int round_positive(double v) {
  return std::max(1, static_cast<int>(std::lround(v)));
}

}  // namespace

void register_builtin_workloads(WorkloadRegistry& registry) {
  // Keys several workloads share, with one shape each.
  const auto n_option = [](std::string fallback, std::string summary) {
    return int_option("n", 2, std::move(fallback), std::move(summary));
  };
  const auto depth_option = [](std::string summary, std::string values) {
    return int_option("depth", 1, kScaled, std::move(summary),
                      std::move(values));
  };
  const auto width_option = [](std::string summary) {
    return int_option("width", 1, "4", std::move(summary));
  };
  const OptionDoc tiles =
      int_option("tiles", 2, kScaled, "tile rows of the factored matrix");

  registry.add(make_entry(
      "cholesky", "Tiled Cholesky",
      "right-looking tiled Cholesky factorisation (POTRF/TRSM/SYRK/GEMM)",
      {tiles},
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
      {int_option("points", 2, kScaled,
                  "transform size (rows have `points` tasks each)",
                  "power of two >= 2")},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0] : fft_points_for(target)};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return fft(d[0], cp);
      },
      [](const Pinned& p) {
        BSA_REQUIRE(!p[0] || (*p[0] & (*p[0] - 1)) == 0,
                    "workload 'fft': option 'points' expects a power of "
                    "two >= 2, got "
                        << *p[0]);
      }));

  registry.add(make_entry(
      "forkjoin", "Fork-join",
      "`depth` fork-join stages of `width` parallel tasks between joins "
      "(Wang & Sinnen-style)",
      {depth_option("number of fork-join stages", {}),
       width_option("parallel tasks per stage")},
      [](const Pinned& p, int target) {
        const int width = *p[1];
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
      {n_option(kScaled, "matrix dimension (n(n+1)/2 - 1 tasks)")},
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
      {n_option(kScaled, "lattice dimension (n^2 tasks)")},
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
      {tiles},
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
      {int_option("levels", 1, kScaled, "population levels"),
       int_option("stations", 1, "8", "queueing stations per level")},
      [](const Pinned& p, int target) {
        const int stations = *p[1];
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
      {int_option("stages", 1, kScaled, "pipeline stages",
                  "integer >= 1 (>= 2 when width > 1)"),
       width_option("parallel lanes")},
      [](const Pinned& p, int target) {
        const int width = *p[1];
        const int stages =
            p[0] ? *p[0]
                 : std::max(2, round_positive(static_cast<double>(target) /
                                              width));
        return std::vector<int>{stages, width};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return pipeline(d[0], d[1], cp);
      },
      [](const Pinned& p) {
        // Fail at resolve time (the registry's fail-up-front contract),
        // not mid-sweep from a worker thread.
        BSA_REQUIRE(!p[0] || *p[0] >= 2 || *p[1] == 1,
                    "workload 'pipeline': option 'stages' expects an "
                    "integer >= 2 when width > 1 (connectivity)");
      }));

  registry.add(make_entry(
      "random", "Random layered DAG",
      "layered random DAG with enforced connectivity (Figures 4/6/7 "
      "suite)",
      {n_option("(target size)", "exact task count"),
       int_option("preds", 1, "3",
                  "max predecessors drawn per non-entry task")},
      [](const Pinned& p, int target) {
        return std::vector<int>{p[0] ? *p[0] : std::max(2, target), *p[1]};
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
      {depth_option("expansion rounds (~2.5x edges per round)",
                    "integer in [1, 14]"),
       int_option("branch", 2, "3", "max branches of a parallel composition",
                  "integer in [2, 32]")},
      [](const Pinned& p, int target) {
        // Expected node count grows ~2.5x per round; invert for the
        // round count and clamp to the generator's accepted range.
        const int depth =
            p[0] ? *p[0]
                 : std::min(14, std::max(1, static_cast<int>(std::lround(
                                                std::log(0.8 * target) /
                                                std::log(2.5)))));
        return std::vector<int>{depth, *p[1]};
      },
      [](const std::vector<int>& d, const CostParams& cp) {
        return series_parallel(d[0], d[1], cp);
      },
      [](const Pinned& p) {
        BSA_REQUIRE(!p[0] || *p[0] <= 14,
                    "workload 'sp': option 'depth' expects an integer in "
                    "[1, 14] (expansion is ~2.5x per round)");
        BSA_REQUIRE(*p[1] <= 32,
                    "workload 'sp': option 'branch' expects an integer "
                    "in [2, 32]");
      }));

  registry.add(make_entry(
      "stencil", "2-D Laplace stencil",
      "iterated 5-point Jacobi stencil over a rows x cols grid",
      {int_option("cols", 1, kScaled, "grid columns"),
       int_option("iters", 1, "4", "Jacobi sweeps",
                  "integer >= 2 (1 only for a 1x1 grid)"),
       int_option("rows", 1, kScaled, "grid rows")},
      [](const Pinned& p, int target) {
        const int iters = *p[1];
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
      [](const Pinned& p) {
        // A single sweep over more than one cell would be edgeless and
        // disconnected; unpinned rows/cols scale to > 1 cell.
        BSA_REQUIRE(*p[1] >= 2 || (p[2] == 1 && p[0] == 1),
                    "workload 'stencil': option 'iters' expects an "
                    "integer >= 2 unless rows=1,cols=1 (connectivity)");
      }));
}

}  // namespace bsa::workloads
