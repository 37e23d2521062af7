/// Domain example: scheduling a Gaussian-elimination task graph — one of
/// the regular applications from the paper's evaluation — onto a
/// 16-processor hypercube, comparing BSA against DLS and the
/// contention-oblivious EFT baseline at three granularities.
///
///   $ ./gaussian_elimination [--dim 12] [--procs 16] [--seed 3] [--help]
///
/// Shows how communication granularity flips the ranking: contention
/// awareness matters most when messages are large relative to tasks.
/// Everything goes through the two registries: graphs come from
/// workload specs ("gauss:n=12,ccr=2") and schedules from scheduler
/// specs ("bsa", "dls", "eft") — see docs/SPECS.md for the grammar.

#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/spec.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "sched/gantt.hpp"
#include "sched/metrics.hpp"
#include "sched/scheduler.hpp"
#include "workloads/regular.hpp"
#include "workloads/workload_registry.hpp"

int main(int argc, char** argv) {
  using namespace bsa;
  const CliParser cli(argc, argv);
  if (const auto exit_code =
          cli.check_flags("gaussian_elimination", {"dim", "procs", "seed"})) {
    return *exit_code;
  }
  const int dim = static_cast<int>(cli.get_int("dim", 12));
  const int procs = static_cast<int>(cli.get_int("procs", 16));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  const sched::SchedulerRegistry& schedulers =
      sched::SchedulerRegistry::global();
  const workloads::WorkloadRegistry& workloads_reg =
      workloads::WorkloadRegistry::global();

  const auto topo = exp::make_topology("hypercube", procs, seed);
  std::cout << "Gaussian elimination, matrix dimension " << dim << " ("
            << workloads::gaussian_elimination_task_count(dim)
            << " tasks) on " << topo.name() << "\n\n";

  const std::vector<std::string> algos{"bsa", "dls", "eft"};
  std::vector<std::string> headers{"granularity"};
  for (const std::string& algo : algos) {
    headers.push_back(schedulers.display_label(algo));
  }
  headers.emplace_back("lower bound");
  TextTable table(headers);
  for (const double gran : {0.1, 1.0, 10.0}) {
    // CCR = 1/granularity; the workload spec pins structure and costs.
    const std::string spec = "gauss:n=" + std::to_string(dim) +
                             ",ccr=" + canonical_double(1.0 / gran);
    const auto g = workloads_reg.resolve(spec)->generate(
        /*target_tasks=*/dim, /*granularity=*/gran, seed);
    const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
        g, topo, 1, 50, 1, 50, derive_seed(seed, 5));
    auto& row = table.new_row().cell(gran, 1);
    for (const std::string& algo : algos) {
      row.cell(schedulers.resolve(algo)->run(g, topo, cm, seed).makespan(),
               1);
    }
    row.cell(sched::schedule_length_lower_bound(g, cm), 1);
  }
  table.print(std::cout);

  // Render the coarse-grained BSA schedule for a small instance.
  std::cout << "\nGantt of BSA on a small instance (dim 6, granularity 1):\n";
  const auto g_small =
      workloads_reg.resolve("gauss:n=6")->generate(6, 1.0, seed);
  const auto cm_small = net::HeterogeneousCostModel::uniform_processor_speeds(
      g_small, topo, 1, 8, 1, 4, derive_seed(seed, 6));
  const auto small_result =
      schedulers.resolve("bsa")->run(g_small, topo, cm_small, seed);
  sched::print_gantt(std::cout, small_result.schedule, 80);
  std::cout << "schedule length: " << small_result.makespan() << '\n';
  return 0;
}
