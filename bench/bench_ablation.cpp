/// Ablation study of BSA's design choices (DESIGN.md §3).
///
/// Since the unified scheduler registry, every ablation variant is just a
/// spec string ("bsa:policy=greedy", "bsa:route=static", ...), so this
/// bench is a plain ScenarioGrid over BSA variant specs evaluated on the
/// parallel sweep runtime — no bespoke option-tweaking loops. For each
/// variant the mean schedule length over a random-graph suite (three
/// granularities on ring and hypercube) is reported.
///
///   * "bsa"                 makespan-guarded default
///   * "bsa:policy=greedy"   literal task-greedy migration
///   * "bsa:gate=always"     always-consider migration gate
///   * "bsa:vip=off"         VIP rule off
///   * "bsa:slots=append"    append-only slot search
///   * "bsa:prune=on"        route-cycle pruning on
///   * "bsa:sweeps=4"        four pivot sweeps
///   * "bsa:serial=blevel"   plain b-level serialization
///   * "bsa:route=static"    static shortest-path re-routing
///
/// Flags: --tasks N, --seeds N, --per-pair, --seed S, --algo spec[,...]
///        (override the variant list), --threads/--jobs N, --out FILE,
///        --progress (live stderr meter), --help (lists the flags). Any
///        other flag is an error.

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
          "bench_ablation", {"tasks", "seeds", "per-pair", "seed", "algo",
                             "threads", "jobs", "out", "progress"})) {
    return *exit_code;
  }
  const int num_tasks = static_cast<int>(cli.get_int("tasks", 80));
  const int seeds = static_cast<int>(cli.get_int("seeds", 3));

  std::vector<std::string> variants{
      "bsa",           "bsa:policy=greedy", "bsa:gate=always",
      "bsa:vip=off",   "bsa:slots=append",  "bsa:prune=on",
      "bsa:sweeps=4",  "bsa:serial=blevel", "bsa:route=static",
  };
  if (cli.has("algo")) {
    variants.clear();
    for (const std::string& value : cli.get_strings("algo")) {
      for (const std::string& spec :
           sched::SchedulerRegistry::global().split_spec_list(value)) {
        variants.push_back(spec);
      }
    }
  }

  runtime::ScenarioGrid grid;
  grid.workloads = {"random"};
  grid.sizes = {num_tasks};
  grid.granularities = {0.1, 1.0, 10.0};
  grid.topologies = {"ring", "hypercube"};
  grid.algos = variants;
  grid.procs = 16;
  grid.het_highs = {50};
  grid.per_pair = cli.get_bool("per-pair", false);
  grid.seeds_per_cell = seeds;
  grid.base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));

  const runtime::ScenarioSet set = runtime::ScenarioSet::from_grid(grid);
  const std::unique_ptr<obs::ProgressMeter> meter = obs::maybe_progress(
      cli.get_bool("progress", false), set.size(), "ablation");
  runtime::SweepOptions sweep_opts;
  sweep_opts.threads = cli.threads(1);
  if (meter != nullptr) sweep_opts.progress = meter->callback();
  runtime::SweepRunner runner(sweep_opts);

  std::cout << "=== BSA design-choice ablation (registry variant grid) ===\n"
            << num_tasks << "-task random graphs, " << seeds
            << " seed(s), granularities {0.1, 1, 10}, " << set.size()
            << " scenarios on " << runner.threads() << " thread(s)\n\n";

  std::unique_ptr<runtime::JsonlSink> jsonl;
  if (const auto out = cli.out_path()) {
    jsonl = std::make_unique<runtime::JsonlSink>(*out);
  }
  const auto results = runner.run(set, jsonl.get());
  if (meter != nullptr) meter->finish();

  // topology -> canonical spec -> granularity -> mean schedule length.
  std::map<std::string, std::map<std::string, std::map<double, exp::CellMean>>>
      cells;
  for (const runtime::ScenarioResult& r : results) {
    cells[r.spec.topology][r.spec.algo][r.spec.granularity].add(
        r.schedule_length);
  }

  // Canonical spec per variant, preserving the requested row order (the
  // aggregation map above is keyed by canonical spec already).
  std::vector<std::string> rows;
  for (const std::string& v : variants) {
    rows.push_back(sched::SchedulerRegistry::global().canonical(v));
  }

  for (const std::string& topo_kind : grid.topologies) {
    const auto topo = exp::make_topology(topo_kind, grid.procs,
                                         grid.base_seed);
    TextTable table({"variant", "gran 0.1", "gran 1.0", "gran 10.0"});
    for (const std::string& row : rows) {
      table.new_row().cell(row);
      for (const double gran : grid.granularities) {
        table.cell(cells.at(topo_kind).at(row).at(gran).mean(), 1);
      }
    }
    std::cout << "-- " << topo.name() << " --\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "expected: policy=greedy blows up at granularity 0.1 (the\n"
               "makespan guard is what delivers contention awareness);\n"
               "extra sweeps help mainly at coarse granularity on the ring.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
