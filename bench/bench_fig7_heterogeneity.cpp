/// Reproduces Figure 7 of the paper: effect of the heterogeneity range.
/// Ten 500-task random graphs (granularity 1.0) are scheduled by BSA and
/// DLS on the 16-processor hypercube while the heterogeneity factor range
/// sweeps over U[1,10], U[1,50], U[1,100], U[1,200]. The sweep runs on
/// the parallel experiment runtime; the same ten graphs are reused for
/// every range. Graph seeds use the legacy sequential derivation
/// (derive_seed(base_seed, i), the pre-runtime serial driver's formula),
/// so the table matches the original serial driver for the same --seed;
/// pass --seed-mode grid for coordinate-derived seeds instead.
///
/// Expected shape (paper §3): both algorithms produce longer schedules as
/// the range grows (more slow processors), but BSA's schedule lengths
/// grow more slowly than DLS's — BSA adapts better to highly
/// heterogeneous systems.
///
/// Flags: --full (10 graphs of 500 tasks as in the paper; default is a
///        quicker 4 graphs of 250 tasks), --graphs N, --tasks N,
///        --per-pair, --csv, --seed S, --seed-mode legacy|grid,
///        --threads/--jobs N (0 = all cores), --out FILE (stream
///        per-scenario JSONL rows), --progress (live stderr meter),
///        --help (lists the flags). Any other flag is an error.

#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/progress.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/scheduler.hpp"

int main(int argc, char** argv) try {
  using namespace bsa;
  const CliParser cli(argc, argv);
  if (const auto exit_code = cli.check_flags(
          "bench_fig7_heterogeneity",
          {"full", "graphs", "tasks", "per-pair", "csv", "seed", "seed-mode",
           "threads", "jobs", "out", "progress"})) {
    return *exit_code;
  }
  const bool full =
      cli.get_bool("full", false) || exp::full_benchmarks_requested();
  const int num_graphs = static_cast<int>(cli.get_int("graphs", full ? 10 : 4));
  const int num_tasks = static_cast<int>(cli.get_int("tasks", full ? 500 : 250));

  runtime::ScenarioGrid grid;
  grid.workloads = {"random"};
  grid.sizes = {num_tasks};
  grid.granularities = {1.0};
  grid.topologies = {"hypercube"};
  grid.algos = {"dls", "bsa"};
  grid.procs = 16;
  grid.het_highs = {10, 50, 100, 200};
  grid.per_pair = cli.get_bool("per-pair", false);
  grid.seeds_per_cell = num_graphs;
  grid.base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  const std::string seed_mode = cli.get_string("seed-mode", "legacy");
  if (seed_mode == "legacy") {
    grid.seed_mode = runtime::SeedMode::kLegacySequential;
  } else if (seed_mode == "grid") {
    grid.seed_mode = runtime::SeedMode::kGridCoordinates;
  } else {
    std::cerr << "--seed-mode expects 'legacy' or 'grid', got '" << seed_mode
              << "'\n";
    return 1;
  }

  const runtime::ScenarioSet set = runtime::ScenarioSet::from_grid(grid);
  const std::unique_ptr<obs::ProgressMeter> meter = obs::maybe_progress(
      cli.get_bool("progress", false), set.size(), "Figure 7");
  runtime::SweepOptions sweep_opts;
  sweep_opts.threads = cli.threads(1);
  if (meter != nullptr) sweep_opts.progress = meter->callback();
  runtime::SweepRunner runner(sweep_opts);

  std::cout << "=== Figure 7: effect of heterogeneity range ===\n"
            << num_graphs << " random graphs of " << num_tasks
            << " tasks, granularity 1.0, 16-processor hypercube, factors "
            << (grid.per_pair ? "per (task,processor) pair" : "per processor")
            << ", " << runtime::seed_mode_name(grid.seed_mode)
            << " seeds, " << set.size() << " scenarios on "
            << runner.threads() << " thread(s)\n\n";

  std::unique_ptr<runtime::JsonlSink> jsonl;
  if (const auto out = cli.out_path()) {
    jsonl = std::make_unique<runtime::JsonlSink>(*out);
  }
  const auto results = runner.run(set, jsonl.get());
  if (meter != nullptr) meter->finish();

  // canonical spec -> heterogeneity range -> accumulator; display labels
  // come from the registry (single source of truth, no local name table).
  const auto& registry = sched::SchedulerRegistry::global();
  std::map<std::string, std::map<int, exp::CellMean>> by_algo;
  for (const runtime::ScenarioResult& r : results) {
    by_algo[r.spec.algo][r.spec.het_hi].add(r.schedule_length);
  }
  const std::string dls_label = registry.display_label(grid.algos[0]);
  const std::string bsa_label = registry.display_label(grid.algos[1]);

  TextTable table({"heterogeneity range", dls_label, bsa_label,
                   bsa_label + "/" + dls_label});
  for (const auto& [hi, dls_mean] : by_algo.at(grid.algos[0])) {
    const double dls = dls_mean.mean();
    const double bsa = by_algo.at(grid.algos[1]).at(hi).mean();
    table.new_row()
        .cell("[1, " + std::to_string(hi) + "]")
        .cell(dls, 1)
        .cell(bsa, 1)
        .cell(dls > 0 ? bsa / dls : 0.0, 3);
  }
  if (cli.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\npaper expectation: both rows grow with the range; BSA "
               "grows more slowly (smaller BSA/DLS at larger ranges)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
