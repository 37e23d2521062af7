/// Local-search refinement study (extension): how much slack does each
/// scheduler leave on the table against a single-task-move local
/// optimum? For each algorithm, schedules are refined with
/// core::refine_schedule (candidate moves measured by core::MoveEngine)
/// and the improvement percentage is reported. Small residuals mean the
/// scheduler's output is already near a local optimum of the
/// contention-aware objective. The refinement timings are written to
/// BENCH_refine.json (same schema as BENCH_runtime.json) so the perf
/// trajectory is tracked run over run.
///
/// Flags: --tasks N, --seeds N, --rounds N, --per-pair, --seed S, --help
/// (lists the flags). Any other flag is an error.

#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/refine.hpp"
#include "exp/experiment.hpp"
#include "runtime/result_sink.hpp"
#include "sched/scheduler.hpp"
#include "workloads/random_dag.hpp"

int main(int argc, char** argv) {
  using namespace bsa;
  const CliParser cli(argc, argv);
  // Exactly the flags read below: --help lists them, and a typo such as
  // --task (for --tasks) fails instead of running with the default.
  if (const auto exit_code = cli.check_flags(
          "bench_refine", {"tasks", "seeds", "rounds", "per-pair", "seed"})) {
    return *exit_code;
  }
  const int num_tasks = static_cast<int>(cli.get_int("tasks", 60));
  const int seeds = static_cast<int>(cli.get_int("seeds", 2));
  const int rounds = static_cast<int>(cli.get_int("rounds", 1));
  const bool per_pair = cli.get_bool("per-pair", false);
  const auto base_seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 2026));

  std::cout << "=== local-search refinement headroom ===\n"
            << num_tasks << "-task random graphs, granularity 1.0, "
            << "16-processor hypercube, " << seeds << " seed(s), " << rounds
            << " refinement round(s)\n\n";

  const auto topo = exp::make_topology("hypercube", 16, base_seed);
  TextTable table({"scheduler", "before", "after refine", "improvement %",
                   "moves", "mean ms"});
  std::vector<runtime::BenchEntry> entries;
  for (const char* spec : {"bsa", "dls", "eft"}) {
    const auto scheduler = sched::SchedulerRegistry::global().resolve(spec);
    const std::string row_name = scheduler->display_label();
    exp::CellMean before, after;
    StatAccumulator wall;
    int total_moves = 0;
    for (int rep = 0; rep < seeds; ++rep) {
      workloads::RandomDagParams params;
      params.num_tasks = num_tasks;
      params.granularity = 1.0;
      params.seed = derive_seed(base_seed, static_cast<std::uint64_t>(rep));
      const auto g = workloads::random_layered_dag(params);
      const auto cm = exp::make_cost_model(g, topo, 1, 50, 1, 50, per_pair,
                                           derive_seed(params.seed, 17));
      // Seed 0 matches the pre-registry dispatch (default BsaOptions), so
      // the BENCH_refine.json trajectory stays comparable across runs.
      const sched::Schedule s = scheduler->run(g, topo, cm, 0).schedule;
      core::RefineOptions opt;
      opt.max_rounds = rounds;
      const auto t0 = std::chrono::steady_clock::now();
      const auto refined = core::refine_schedule(s, cm, opt);
      const auto t1 = std::chrono::steady_clock::now();
      wall.add(std::chrono::duration<double, std::milli>(t1 - t0).count());
      before.add(s.makespan());
      after.add(refined.final_length);
      total_moves += refined.moves_applied;
    }
    const double pct =
        before.mean() > 0
            ? 100.0 * (before.mean() - after.mean()) / before.mean()
            : 0.0;
    table.new_row()
        .cell(row_name)
        .cell(before.mean(), 1)
        .cell(after.mean(), 1)
        .cell(pct, 1)
        .cell(static_cast<long long>(total_moves))
        .cell(wall.mean(), 2);
    runtime::BenchEntry e;
    e.label = row_name + "/" + std::to_string(num_tasks);
    e.runs = static_cast<int>(wall.count());
    e.mean_wall_ms = wall.mean();
    e.mean_schedule_length = after.mean();
    entries.push_back(std::move(e));
  }
  table.print(std::cout);
  std::cout << "\nsmall improvement % = the scheduler was already near a "
               "single-move local optimum\n";

  const std::string report_path = "BENCH_refine.json";
  std::ofstream report(report_path, std::ios::trunc);
  BSA_REQUIRE(report.good(), "cannot write " << report_path);
  runtime::write_bench_json(report, "refine", 1, entries);
  std::cout << "wrote " << entries.size() << " entries to " << report_path
            << '\n';
  return 0;
}
