/// Algorithm running-time comparison on the parallel experiment runtime.
///
/// The paper (§3, last paragraph) reports that BSA's and DLS's running
/// times were "about the same because the two algorithms are of
/// comparable time complexity" (O(m^2 e n) vs O(n^2 m e / ready)). This
/// bench measures both schedulers (plus the EFT ablation) across graph
/// sizes and topologies so the claim can be checked on this machine, and
/// records the perf trajectory as BENCH_runtime.json via the runtime's
/// result sink.
///
/// Timing note: per-scenario wall_ms is measured inside the scenario
/// worker, so --threads > 1 speeds the sweep up without perturbing the
/// per-algorithm means much; use --threads 1 for the most stable numbers.
///
/// Flags: --reps N (default 3), --full (adds 400-task graphs, plus BSA,
///        DLS and HEFT on 1000- and 4000-task graphs on hypercube-16 with
///        heterogeneity U[1,4]: the scale cells),
///        --threads/--jobs N (0 = all cores), --seed S,
///        --out FILE (JSONL rows; default BENCH_runtime.json holds the
///        aggregate report either way),
///        --progress (live stderr meter for the scenario sweep),
///        --quick (CI smoke: one rep of 50-task graphs; fails loudly on
///        an invalid schedule and writes no report file),
///        --help (lists the flags). Any other flag is an error.
///
/// The move engine's equivalences (incremental re-timing vs the full
/// rebuild, transactional rollback vs the pre-move schedule) are checked
/// in the tests, by the core::MoveEngine::Observer they install
/// (tests/bsa_oracle.hpp), not here.
///
/// BENCH_runtime.json entries carry p50/p99 wall-time percentiles next
/// to the historical means, plus each cell's summed deterministic
/// algorithm counters (see docs/DESIGN_OBS.md).

#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"

int main(int argc, char** argv) {
  using namespace bsa;
  const CliParser cli(argc, argv);
  // Exactly the flags read below: --help lists them, and a typo such as
  // --ful (for --full) fails instead of running with the default.
  if (const auto exit_code = cli.check_flags(
          "bench_runtime", {"full", "quick", "reps", "seed", "threads",
                            "jobs", "out", "progress"})) {
    return *exit_code;
  }
  const bool full =
      cli.get_bool("full", false) || exp::full_benchmarks_requested();
  const bool quick = cli.get_bool("quick", false);
  const int reps = quick ? 1 : static_cast<int>(cli.get_int("reps", 3));

  runtime::ScenarioGrid grid;
  grid.workloads = {"random"};
  grid.sizes = quick  ? std::vector<int>{50}
               : full ? std::vector<int>{50, 100, 200, 400}
                      : std::vector<int>{50, 100, 200};
  grid.granularities = {1.0};
  grid.topologies = {"ring", "hypercube", "clique"};
  grid.algos = {"bsa", "dls", "eft"};
  grid.procs = 16;
  grid.het_highs = {50};
  grid.seeds_per_cell = reps;
  grid.base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  std::vector<runtime::ScenarioSet> sets = {
      runtime::ScenarioSet::from_grid(grid)};
  if (full) {
    // The scale cells, where the per-(task, processor) probing of the
    // list schedulers and BSA's replay show.
    runtime::ScenarioGrid scale = grid;
    scale.sizes = {1000, 4000};
    scale.topologies = {"hypercube"};
    scale.algos = {"bsa", "dls", "heft"};
    scale.het_highs = {4};
    sets.push_back(runtime::ScenarioSet::from_grid(scale));
  }
  std::size_t scenarios = 0;
  for (const runtime::ScenarioSet& set : sets) scenarios += set.size();
  const std::unique_ptr<obs::ProgressMeter> meter = obs::maybe_progress(
      cli.get_bool("progress", false), scenarios, "bench_runtime");
  runtime::SweepOptions sweep_opts;
  sweep_opts.threads = cli.threads(1);
  std::size_t done_before = 0;  // scenarios of the sets already swept
  if (meter != nullptr) {
    sweep_opts.progress = [tick = meter->callback(), &done_before](
                              std::size_t done, std::size_t total) {
      tick(done_before + done, total);
    };
  }
  runtime::SweepRunner runner(sweep_opts);

  std::cout << "=== scheduler running times (means over " << reps
            << " graphs/cell, " << scenarios << " scenarios on "
            << runner.threads() << " thread(s)) ===\n\n";

  std::unique_ptr<runtime::JsonlSink> jsonl;
  if (const auto out = cli.out_path()) {
    jsonl = std::make_unique<runtime::JsonlSink>(*out);
  }
  std::vector<runtime::ScenarioResult> results;
  for (const runtime::ScenarioSet& set : sets) {
    std::vector<runtime::ScenarioResult> part = runner.run(set, jsonl.get());
    results.insert(results.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    done_before += set.size();
  }
  if (meter != nullptr) meter->finish();

  // (topology, size, algo) -> wall-time / schedule-length accumulators,
  // keyed in enumeration order for a stable report.
  struct Cell {
    StatAccumulator wall, length;
    std::vector<double> wall_samples;
    obs::Registry counters;
  };
  std::vector<std::string> order;
  std::map<std::string, Cell> cells;
  for (const runtime::ScenarioResult& r : results) {
    // Labels use the canonical registry spec ("bsa/ring/100"), the same
    // spelling the JSONL rows carry.
    const std::string label = r.spec.algo + "/" + r.spec.topology + "/" +
                              std::to_string(r.spec.size);
    if (cells.find(label) == cells.end()) order.push_back(label);
    Cell& c = cells[label];
    c.wall.add(r.wall_ms);
    c.wall_samples.push_back(r.wall_ms);
    c.length.add(r.schedule_length);
    c.counters.merge(r.counters);
    BSA_REQUIRE(r.valid, "invalid schedule from " << label);
  }

  TextTable table({"algo/topology/size", "mean ms", "p50 ms", "p99 ms",
                   "min ms", "max ms", "mean schedule length"});
  std::vector<runtime::BenchEntry> entries;
  for (const std::string& label : order) {
    const Cell& c = cells.at(label);
    const double p50 = percentile_of(c.wall_samples, 50);
    const double p99 = percentile_of(c.wall_samples, 99);
    table.new_row()
        .cell(label)
        .cell(c.wall.mean(), 2)
        .cell(p50, 2)
        .cell(p99, 2)
        .cell(c.wall.min(), 2)
        .cell(c.wall.max(), 2)
        .cell(c.length.mean(), 1);
    runtime::BenchEntry e;
    e.label = label;
    e.runs = c.wall.count();
    e.mean_wall_ms = c.wall.mean();
    e.p50_wall_ms = p50;
    e.p99_wall_ms = p99;
    e.mean_schedule_length = c.length.mean();
    e.counters = c.counters.snapshot();
    entries.push_back(std::move(e));
  }
  table.print(std::cout);

  if (quick) {
    std::cout << "\nquick mode: " << results.size()
              << " valid schedule(s); no report written\n";
    return 0;
  }

  const std::string report_path = "BENCH_runtime.json";
  std::ofstream report(report_path, std::ios::trunc);
  BSA_REQUIRE(report.good(), "cannot write " << report_path);
  runtime::write_bench_json(report, "runtime", runner.threads(), entries);
  std::cout << "\nwrote " << entries.size() << " aggregate entries to "
            << report_path << '\n';
  return 0;
}
