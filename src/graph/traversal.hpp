#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"

/// \file traversal.hpp
/// Reachability helpers over a TaskGraph. Used by the serialization step
/// (recursive ancestor inclusion) and by tests/property checks.

namespace bsa::graph {

/// Boolean mask (indexed by TaskId) of all strict ancestors of `t`.
[[nodiscard]] std::vector<char> ancestor_mask(const TaskGraph& g, TaskId t);

/// True iff `order` contains every task exactly once and never places a
/// task before one of its predecessors.
[[nodiscard]] bool is_topological_order(const TaskGraph& g,
                                        const std::vector<TaskId>& order);

/// Longest path length counted in *hops* from any entry to any exit
/// (graph "depth"); a single task has depth 1.
[[nodiscard]] int graph_depth(const TaskGraph& g);

}  // namespace bsa::graph
