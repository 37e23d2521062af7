#pragma once

#include <span>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"

/// \file assignment.hpp
/// Build a complete contention-aware schedule from a bare task→processor
/// assignment.
///
/// Tasks are list-scheduled in descending nominal b-level (ties by id)
/// onto their assigned processors with insertion-based slot search, on
/// the rank schedulers' loop (baselines::ListRun); crossing messages are
/// routed along shortest paths and booked into exclusive link slots. This turns *any* mapping — produced by a
/// partitioner, a metaheuristic, or a human — into a feasible schedule
/// whose length can be compared against BSA/DLS.

namespace bsa::sched {

/// `assignment[t]` is the processor of task t (all entries valid).
/// The returned schedule is complete and valid.
[[nodiscard]] Schedule schedule_from_assignment(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs,
    std::span<const ProcId> assignment, const net::RoutingTable& table);

/// Convenience overload constructing the routing table internally.
[[nodiscard]] Schedule schedule_from_assignment(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& costs,
    std::span<const ProcId> assignment);

}  // namespace bsa::sched
