#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "sched/schedule.hpp"

/// \file sa.hpp
/// Simulated-annealing refinement over an existing schedule.
///
/// Moves are single-task migrations (uniform random task, uniform random
/// other processor) evaluated through core::MoveEngine, so a rejected move
/// costs O(touched) instead of a schedule rebuild (docs/DESIGN_PORTFOLIO.md).
/// Acceptance is Metropolis on the makespan delta with geometric cooling:
///
///   T_k = temp0 * SL_init * 0.001^(k / max(iters - 1, 1))
///
/// Never-worse guarantee: the best schedule seen — starting with the
/// input itself — is tracked as a snapshot and returned, so the result
/// makespan is <= the input makespan for any iteration count. The whole
/// run is a pure function of (input schedule, costs, options): same seed
/// replays the identical move sequence bit-for-bit.

namespace bsa::sched {

struct SaOptions {
  /// Number of proposed moves; 0 returns the input untouched.
  int iters = 100;
  /// Seed of the move/acceptance stream.
  std::uint64_t seed = 0;
  /// Initial temperature as a fraction of the input makespan (> 0).
  double temp0 = 0.05;
};

struct SaResult {
  Schedule schedule;
  Time initial_length = 0;
  Time final_length = 0;
  std::int64_t proposed = 0;        ///< iterations with a usable move
  std::int64_t accepted = 0;        ///< moves applied to the working copy
  std::int64_t accepted_worse = 0;  ///< accepted despite a positive delta
  std::int64_t best_updates = 0;    ///< times the best snapshot improved
  std::int64_t replay_fallbacks = 0;  ///< MoveEngine re-timing-cycle replays
};

/// Anneal `init` (complete schedule) under `options`. Deterministic in
/// its arguments; the returned schedule never has a worse makespan than
/// `init`. With iters == 0 (or a single-processor topology, where no
/// migration exists) the input is returned bit-identically.
[[nodiscard]] SaResult anneal_schedule(const Schedule& init,
                                       const net::HeterogeneousCostModel& costs,
                                       const SaOptions& options);

}  // namespace bsa::sched
