/// Workload-suite bench: every registered workload × the full scheduler
/// portfolio ({bsa, dls, mh, eft, heft, peft, sa}) on
/// mesh/hypercube/clique topologies, evaluated on the parallel
/// experiment runtime.
///
///   $ ./bench_workloads [--threads 0] [--size 80] [--seeds 2]
///                       [--full] [--quick] [--out runs.jsonl] [--csv]
///                       [--progress] [--gran G] [--procs N] [--het H]
///                       [--seed S] [--help]
///
/// Any flag not listed is an error.
///
/// --quick shrinks the grid (size 30, 1 seed/cell) for CI smoke runs
/// that only assert the artefact shape.
///
/// Prints one table per topology (rows = workloads, columns = algorithm
/// mean schedule lengths plus the BSA/DLS ratio) and writes aggregate
/// <workload>/<topology>/<algo> entries to BENCH_workloads.json.
/// Deterministic at any --threads value.

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/scheduler.hpp"
#include "workloads/workload_registry.hpp"

namespace {

using namespace bsa;

constexpr const char* kAlgos[] = {"bsa",  "dls",  "mh", "eft",
                                  "heft", "peft", "sa"};
constexpr const char* kTopologies[] = {"mesh", "hypercube", "clique"};

int run(const CliParser& cli) {
  const bool full =
      cli.get_bool("full", false) || exp::full_benchmarks_requested();
  const bool quick = cli.get_bool("quick", false);
  runtime::ScenarioGrid grid;
  grid.workloads = workloads::WorkloadRegistry::global().names();
  grid.sizes = {static_cast<int>(
      cli.get_int("size", quick ? 30 : (full ? 200 : 80)))};
  grid.granularities = {cli.get_double("gran", 1.0)};
  grid.topologies = {kTopologies, kTopologies + std::size(kTopologies)};
  grid.algos = {kAlgos, kAlgos + std::size(kAlgos)};
  grid.procs = static_cast<int>(cli.get_int("procs", 16));
  grid.het_highs = {static_cast<int>(cli.get_int("het", 50))};
  grid.seeds_per_cell = static_cast<int>(
      cli.get_int("seeds", quick ? 1 : (full ? 5 : 2)));
  grid.base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));

  const runtime::ScenarioSet set = runtime::ScenarioSet::from_grid(grid);
  const std::unique_ptr<obs::ProgressMeter> meter = obs::maybe_progress(
      cli.get_bool("progress", false), set.size(), "workloads");
  runtime::SweepOptions sweep_opts;
  sweep_opts.threads = cli.threads(1);
  if (meter != nullptr) sweep_opts.progress = meter->callback();
  runtime::SweepRunner runner(sweep_opts);
  std::cout << "=== workload suite: " << grid.workloads.size()
            << " workloads x " << grid.algos.size() << " algorithms x "
            << grid.topologies.size() << " topologies, target size "
            << grid.sizes[0] << ", " << grid.seeds_per_cell
            << " seed(s)/cell, " << set.size() << " scenarios on "
            << runner.threads() << " thread(s) ===\n\n";

  std::unique_ptr<runtime::JsonlSink> jsonl;
  if (const auto out = cli.out_path()) {
    jsonl = std::make_unique<runtime::JsonlSink>(*out);
  }
  const std::vector<runtime::ScenarioResult> results =
      runner.run(set, jsonl.get());
  if (meter != nullptr) meter->finish();
  if (jsonl != nullptr) jsonl->flush();

  // topology -> workload -> algo -> means. Enumeration order is
  // deterministic, so the aggregation (and every artefact) is too.
  struct Cell {
    exp::CellMean length, wall;
    std::vector<double> wall_samples;
    obs::Registry counters;
  };
  std::map<std::string, std::map<std::string, std::map<std::string, Cell>>>
      agg;
  bool all_valid = true;
  for (const runtime::ScenarioResult& r : results) {
    Cell& c = agg[r.spec.topology][r.spec.workload][r.spec.algo];
    c.length.add(static_cast<double>(r.schedule_length));
    c.wall.add(r.wall_ms);
    c.wall_samples.push_back(r.wall_ms);
    c.counters.merge(r.counters);
    all_valid = all_valid && r.valid;
  }

  // The rep-0 graph is identical across algorithms and topologies of a
  // cell; regenerate it once per workload for the task-count column.
  std::map<std::string, int> task_counts;
  for (const std::string& workload : grid.workloads) {
    std::uint64_t instance_seed = grid.base_seed;
    for (const runtime::ScenarioResult& r : results) {
      if (r.spec.workload == workload && r.spec.rep == 0) {
        instance_seed = r.spec.instance_seed;
        break;
      }
    }
    task_counts[workload] =
        workloads::WorkloadRegistry::global()
            .resolve(workload)
            ->generate(grid.sizes[0], grid.granularities[0], instance_seed)
            .num_tasks();
  }

  const bool csv = cli.get_bool("csv", false);
  std::vector<runtime::BenchEntry> entries;
  for (const char* topo : kTopologies) {
    std::vector<std::string> headers{"workload", "tasks"};
    for (const char* algo : kAlgos) headers.emplace_back(algo);
    headers.emplace_back("bsa/dls");
    TextTable table(headers);
    for (const std::string& workload : grid.workloads) {
      const auto& cells = agg.at(topo).at(workload);
      table.new_row().cell(workload).cell(
          static_cast<long long>(task_counts.at(workload)));
      for (const char* algo : kAlgos) {
        const Cell& cell = cells.at(algo);
        table.cell(cell.length.mean(), 1);
        runtime::BenchEntry e;
        e.label = workload + "/" + topo + "/" + algo;
        e.runs = static_cast<std::size_t>(cell.length.count);
        e.mean_wall_ms = cell.wall.mean();
        e.mean_schedule_length = cell.length.mean();
        e.p50_wall_ms = percentile_of(cell.wall_samples, 50);
        e.p99_wall_ms = percentile_of(cell.wall_samples, 99);
        e.counters = cell.counters.snapshot();
        entries.push_back(std::move(e));
      }
      const double dls = cells.at("dls").length.mean();
      table.cell(dls > 0 ? cells.at("bsa").length.mean() / dls : 0.0, 3);
    }
    std::cout << "-- " << topo << " --\n";
    if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    std::cout << '\n';
  }
  std::cout << (all_valid ? "all schedules validated OK"
                          : "WARNING: some schedules failed validation")
            << "\n";

  std::ofstream bench_json("BENCH_workloads.json");
  runtime::write_bench_json(bench_json, "workloads", runner.threads(),
                            entries);
  std::cout << "wrote " << entries.size()
            << " entries to BENCH_workloads.json\n";
  if (jsonl != nullptr) {
    std::cout << "wrote " << jsonl->rows_written() << " JSONL rows to "
              << *cli.out_path() << "\n";
  }
  return all_valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bsa::CliParser cli(argc, argv);
    if (const auto exit_code = cli.check_flags(
            "bench_workloads",
            {"full", "quick", "size", "gran", "procs", "het", "seeds", "seed",
             "threads", "jobs", "out", "csv", "progress"})) {
      return *exit_code;
    }
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
