#pragma once

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "sched/schedule.hpp"

/// \file refine.hpp
/// Post-scheduling local search (extension beyond the paper).
///
/// Starting from any complete schedule, repeatedly try to move a single
/// task to a different processor; each candidate move is measured with
/// core::MoveEngine (journaled into a transaction, re-timed incrementally
/// and rolled back), and the best move of a task is kept when the schedule
/// gets strictly shorter. Useful to (a) polish BSA/DLS output and (b)
/// measure how close each scheduler already is to a single-move local
/// optimum (see bench_refine).

namespace bsa::core {

struct RefineOptions {
  /// Full passes over all tasks (each pass tries every task once).
  int max_rounds = 2;
  /// Consider at most this many candidate processors per task (the
  /// task's cheapest processors by execution cost are tried first);
  /// <= 0 means all processors.
  int candidates_per_task = 0;
  /// Stop a round early after this many consecutive non-improving tasks
  /// (<= 0 disables early stopping).
  int patience = 0;
};

struct RefineResult {
  sched::Schedule schedule;
  Time initial_length = 0;
  Time final_length = 0;
  int moves_applied = 0;
  int candidates_evaluated = 0;
};

/// Refine `input` (must be complete and valid). Deterministic.
[[nodiscard]] RefineResult refine_schedule(
    const sched::Schedule& input, const net::HeterogeneousCostModel& costs,
    const RefineOptions& options = {});

}  // namespace bsa::core
