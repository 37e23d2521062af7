#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "network/cost_model.hpp"
#include "sched/schedule.hpp"

/// \file event_sim.hpp
/// Independent discrete-event execution of a schedule.
///
/// Given only the *orders* of a schedule (task order per processor,
/// transmission order per link, hop order per route), the simulator
/// executes the program: a task starts when it reaches the head of its
/// processor queue and all of its messages have arrived; a hop transmits
/// when it reaches the head of its link queue and its payload is present
/// at the link's tail processor.
///
/// This is an independent implementation of the semantics that the
/// order-preserving re-timing (sched::RetimeContext) computes by longest
/// path; tests cross-check the two (catching bugs in either). It also
/// detects deadlocks: orders that can never be executed.

namespace bsa::sched {

struct SimulationResult {
  bool completed = false;   ///< all tasks and hops executed
  std::string error;        ///< non-empty when deadlocked
  Time makespan = 0;
  std::vector<Time> task_start;   ///< by TaskId (kUnsetTime when not run)
  std::vector<Time> task_finish;  ///< by TaskId
};

/// Execute the orders of `s` and return the resulting times. The schedule
/// itself is not modified. Requires all tasks placed.
[[nodiscard]] SimulationResult simulate_execution(
    const Schedule& s, const net::HeterogeneousCostModel& costs);

/// True when simulated times equal the schedule's recorded times exactly
/// for every task.
[[nodiscard]] bool simulation_matches(const Schedule& s,
                                      const SimulationResult& result);

}  // namespace bsa::sched
