#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "exp/experiment.hpp"

/// \file fig_common.hpp
/// Shared driver for the figure-reproduction benches (Figures 3-6 of the
/// paper): enumerate the (workload × topology × algorithm) scenario grid,
/// evaluate it on the parallel experiment runtime (runtime::SweepRunner),
/// aggregate cell means, and print one paper-style series table per
/// topology. Aggregated numbers are bit-identical at any --threads value.

namespace bsa::bench {

struct SweepConfig {
  /// true: the regular-application suite (GE, LU, Laplace averaged, as
  /// in Figures 3/5); false: random layered DAGs (Figures 4/6).
  bool regular_suite = true;
  /// Graph sizes (paper: 50..500 step 50) and granularities (paper:
  /// {0.1, 1, 10}).
  std::vector<int> sizes;
  std::vector<double> granularities;
  /// false: x-axis is graph size, averaged over granularities (Figs 3/4);
  /// true: x-axis is granularity, averaged over sizes (Figs 5/6).
  bool x_axis_granularity = false;
  int procs = 16;
  int het_lo = 1;
  int het_hi = 50;
  /// false (default): one U[lo,hi] speed factor per processor/link —
  /// DESIGN.md §3 note 9. true: i.i.d. factor per (task,processor) /
  /// (message,link) pair, the paper's §2.1 literal model.
  bool per_pair = false;
  int seeds_per_cell = 1;
  std::uint64_t base_seed = 2026;
  /// Scheduler registry specs, one table column each, in column order.
  /// When two or more are given a ratio column algos[1]/algos[0] is
  /// printed after them (the paper's BSA/DLS with the default layout).
  std::vector<std::string> algos = {"dls", "bsa"};
  bool print_csv = false;
  /// Worker threads for the sweep (0 = all hardware threads).
  int threads = 1;
  /// When non-empty, every scenario result is also streamed to this path
  /// as JSON Lines.
  std::string out_path;
  /// Show a live done/total progress meter on stderr (auto-disabled when
  /// stderr is not a TTY; never affects the printed tables or JSONL).
  bool progress = false;
  /// When non-empty, write a Chrome trace-event JSON file of the sweep
  /// (per-worker tracks; load in Perfetto or chrome://tracing).
  std::string trace_path;
};

/// Apply the standard command-line flags (--full, --seeds, --procs,
/// --per-pair, --algo spec[,spec...], --eft (alias for appending "eft"),
/// --csv, --seed, --threads/--jobs, --out, --progress, --trace FILE) to
/// a config.
void apply_cli(const CliParser& cli, SweepConfig* config);

/// Run the sweep on the parallel runtime and print one table per
/// topology to `os`. `figure_name` labels the output (e.g. "Figure 3").
void run_and_print(const SweepConfig& config, const std::string& figure_name,
                   std::ostream& os);

/// apply_cli + run_and_print with clean error reporting: an undeclared
/// flag (e.g. --algoo) or a bad flag value (e.g. a typoed --algo spec)
/// prints `error: ...` to stderr and returns exit code 1 instead of
/// terminating on the uncaught exception; --help prints the declared
/// flags and returns 0. The figure drivers' main() is one call to this.
[[nodiscard]] int run_figure_bench(const CliParser& cli, SweepConfig config,
                                   const std::string& figure_name);

}  // namespace bsa::bench
