#include "core/refine.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "core/move_engine.hpp"

namespace bsa::core {
namespace {

/// Candidate processors for `t`: cheapest execution first, capped by
/// options.candidates_per_task.
std::vector<ProcId> move_candidates(TaskId t, const net::Topology& topo,
                                    const net::HeterogeneousCostModel& costs,
                                    const RefineOptions& options) {
  std::vector<ProcId> procs(static_cast<std::size_t>(topo.num_processors()));
  std::iota(procs.begin(), procs.end(), 0);
  std::sort(procs.begin(), procs.end(), [&](ProcId a, ProcId b) {
    const Cost ca = costs.exec_cost(t, a);
    const Cost cb = costs.exec_cost(t, b);
    if (ca != cb) return ca < cb;
    return a < b;
  });
  if (options.candidates_per_task > 0 &&
      static_cast<std::size_t>(options.candidates_per_task) < procs.size()) {
    procs.resize(static_cast<std::size_t>(options.candidates_per_task));
  }
  return procs;
}

}  // namespace

/// Local search over core::MoveEngine: each candidate move is measured
/// and rolled back in O(touched); the best one is applied for real.
RefineResult refine_schedule(const sched::Schedule& input,
                             const net::HeterogeneousCostModel& costs,
                             const RefineOptions& options) {
  BSA_REQUIRE(input.all_placed(), "refine requires a complete schedule");
  BSA_REQUIRE(options.max_rounds >= 1, "max_rounds must be >= 1");
  const auto& g = input.task_graph();
  const auto& topo = input.topology();

  RefineResult result{input, input.makespan(), input.makespan(), 0, 0};
  sched::Schedule& s = result.schedule;
  MoveEngine engine(s, costs);
  Time best_len = s.makespan();

  for (int round = 0; round < options.max_rounds; ++round) {
    bool improved_this_round = false;
    int stale = 0;
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      const ProcId original = s.proc_of(t);
      ProcId best_proc = original;
      for (const ProcId p : move_candidates(t, topo, costs, options)) {
        if (p == original) continue;
        ++result.candidates_evaluated;
        const Time len = engine.evaluate(t, p);
        if (len < best_len) {
          best_len = len;
          best_proc = p;
        }
      }
      if (best_proc != original) {
        engine.apply(t, best_proc);
        best_len = s.makespan();
        ++result.moves_applied;
        improved_this_round = true;
        stale = 0;
      } else if (options.patience > 0 && ++stale >= options.patience) {
        break;
      }
    }
    if (!improved_this_round) break;
  }
  result.final_length = best_len;
  return result;
}

}  // namespace bsa::core
