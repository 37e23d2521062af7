#include "sched/sa.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/move_engine.hpp"

namespace bsa::sched {

SaResult anneal_schedule(const Schedule& init,
                         const net::HeterogeneousCostModel& costs,
                         const SaOptions& options) {
  BSA_REQUIRE(init.all_placed(), "anneal requires a complete schedule");
  BSA_REQUIRE(options.iters >= 0, "iters must be >= 0");
  BSA_REQUIRE(options.temp0 > 0, "temp0 must be > 0");

  SaResult result{init, init.makespan(), init.makespan(), 0, 0, 0, 0, 0};
  const auto& g = init.task_graph();
  const int m = init.topology().num_processors();
  if (options.iters == 0 || m < 2) return result;  // input, bit-identical

  // Working copy: pulled to its earliest-time fixpoint by the engine
  // (never lengthens the schedule); `result.schedule` stays the pristine
  // input so "best seen" starts at the input itself.
  Schedule cur = init;
  core::MoveEngine engine(cur, costs);
  Time cur_len = cur.makespan();
  Time best_len = result.final_length;
  if (cur_len < best_len) {
    result.schedule = cur;
    best_len = cur_len;
    ++result.best_updates;
  }

  const double t0 = options.temp0 * static_cast<double>(cur_len);
  const double steps = std::max(options.iters - 1, 1);
  Rng rng(derive_seed(options.seed, 0x5AA17EA1ULL));

  for (int k = 0; k < options.iters; ++k) {
    const auto t = static_cast<TaskId>(rng.index(
        static_cast<std::size_t>(g.num_tasks())));
    // Uniform over the other m-1 processors.
    auto p = static_cast<ProcId>(rng.index(static_cast<std::size_t>(m - 1)));
    if (p >= cur.proc_of(t)) ++p;
    ++result.proposed;

    // The measured move is kept as it stands, or discarded.
    const Time len = engine.propose(t, p);
    const double delta = static_cast<double>(len - cur_len);
    bool accept = len <= cur_len;
    bool worse = false;
    if (!accept) {
      const double temp = t0 * std::pow(1e-3, static_cast<double>(k) / steps);
      accept = rng.uniform_real(0.0, 1.0) < std::exp(-delta / temp);
      worse = accept;
    }
    if (!accept) {
      engine.discard();
      continue;
    }

    engine.keep();
    cur_len = cur.makespan();
    ++result.accepted;
    result.accepted_worse += worse;
    if (cur_len < best_len) {
      result.schedule = cur;
      best_len = cur_len;
      ++result.best_updates;
    }
  }

  result.final_length = best_len;
  result.replay_fallbacks = engine.stats().replay_fallbacks;
  return result;
}

}  // namespace bsa::sched
