/// Toolkit example: evaluating external mappings and polishing them.
///
///   $ ./partition_and_refine [--tasks 80] [--seed 4] [--help]
///
/// Demonstrates the assignment toolkit around the schedulers:
///  1. build a naive "layer-striped" mapping by hand (tasks striped over
///     processors in topological order — what a simple partitioner might
///     emit),
///  2. turn it into a feasible contention-aware schedule with
///     sched::schedule_from_assignment,
///  3. polish it with core::refine_schedule (single-task-move local
///     search, each candidate move measured by core::MoveEngine),
///  4. compare against BSA and DLS on the same instance.

#include <iostream>

#include "baselines/dls.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/bsa.hpp"
#include "core/refine.hpp"
#include "exp/experiment.hpp"
#include "graph/graph_stats.hpp"
#include "sched/assignment.hpp"
#include "sched/metrics.hpp"
#include "workloads/random_dag.hpp"

int main(int argc, char** argv) {
  using namespace bsa;
  const CliParser cli(argc, argv);
  if (const auto exit_code =
          cli.check_flags("partition_and_refine", {"tasks", "seed"})) {
    return *exit_code;
  }
  const int num_tasks = static_cast<int>(cli.get_int("tasks", 80));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 4));

  workloads::RandomDagParams params;
  params.num_tasks = num_tasks;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("hypercube", 16, seed);
  const auto cm = exp::make_cost_model(g, topo, 1, 20, 1, 10, false,
                                       derive_seed(seed, 1));

  std::cout << "workload:\n";
  graph::print_stats(std::cout, graph::compute_stats(g));
  std::cout << '\n';

  // 1. Naive striped mapping over the processors.
  std::vector<ProcId> striped(static_cast<std::size_t>(g.num_tasks()));
  int next = 0;
  for (const TaskId t : g.topological_order()) {
    striped[static_cast<std::size_t>(t)] =
        static_cast<ProcId>(next++ % topo.num_processors());
  }
  const auto striped_schedule =
      sched::schedule_from_assignment(g, topo, cm, striped);

  // 2/3. Refine the striped mapping.
  core::RefineOptions ropt;
  ropt.max_rounds = 2;
  const auto refined = core::refine_schedule(striped_schedule, cm, ropt);

  // 4. Reference algorithms.
  const auto bsa_result = core::schedule_bsa(g, topo, cm);
  const auto dls_result = baselines::schedule_dls(g, topo, cm);

  TextTable table({"schedule", "length", "speedup", "SLR"});
  auto add_row = [&](const std::string& name, const sched::Schedule& s) {
    const auto m = sched::compute_metrics(s, cm);
    table.new_row().cell(name).cell(m.makespan, 1).cell(m.speedup, 2).cell(
        m.slr, 2);
  };
  add_row("striped mapping", striped_schedule);
  add_row("striped + refine (" + std::to_string(refined.moves_applied) +
              " moves)",
          refined.schedule);
  add_row("BSA", bsa_result.schedule);
  add_row("DLS", dls_result.schedule);
  table.print(std::cout);
  std::cout << "\nSLR = schedule length / fastest-chain lower bound "
               "(1.0 is unbeatable)\n";
  return 0;
}
