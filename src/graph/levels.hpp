#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/task_graph.hpp"

/// \file levels.hpp
/// t-level / b-level analysis and critical-path extraction (§2.2 of the
/// paper).
///
/// * The *b-level* of a task is the length of the longest path beginning
///   with the task (including its own execution cost).
/// * The *t-level* is the length of the longest path reaching the task
///   (excluding the task's own cost).
/// * A critical path (CP) starts at an entry task of the largest b-level
///   and follows the argmax edges the b-levels took, compared exactly
///   (t-level + b-level == CP length would add up two rounded sums).
///
/// All functions take explicit per-task execution costs and per-edge
/// communication costs so the same machinery serves both nominal analysis
/// and the per-processor actual-cost analysis used by BSA's pivot
/// selection (§2.2: "Based on the set of actual execution costs, the CP is
/// constructed").

namespace bsa::graph {

/// Result of a level computation.
struct LevelSets {
  std::vector<Cost> t_level;  ///< indexed by TaskId
  std::vector<Cost> b_level;  ///< indexed by TaskId
  Cost cp_length = 0;         ///< the largest b-level of an entry task
  /// 1 for the tasks on *some* critical path, indexed by TaskId.
  std::vector<unsigned char> critical;

  /// True when `t` lies on *some* critical path.
  [[nodiscard]] bool on_critical_path(TaskId t) const {
    return critical[static_cast<std::size_t>(t)] != 0;
  }
};

/// Compute t-levels and b-levels under the given cost vectors.
/// `exec_costs` is indexed by TaskId (size = num_tasks), `comm_costs` by
/// EdgeId (size = num_edges).
[[nodiscard]] LevelSets compute_levels(const TaskGraph& g,
                                       std::span<const Cost> exec_costs,
                                       std::span<const Cost> comm_costs);

/// Convenience overload using the graph's nominal costs.
[[nodiscard]] LevelSets compute_levels(const TaskGraph& g);

/// Extract one critical path as an ordered task sequence (entry to exit).
///
/// When multiple CPs exist the paper's rule applies: select the CP with the
/// largest sum of execution costs; remaining ties are broken randomly via
/// `rng` (Definition 1 / Serialization step 2).
[[nodiscard]] std::vector<TaskId> extract_critical_path(
    const TaskGraph& g, std::span<const Cost> exec_costs,
    std::span<const Cost> comm_costs, const LevelSets& levels, Rng& rng);

/// Convenience: nominal-cost critical path.
[[nodiscard]] std::vector<TaskId> extract_critical_path(const TaskGraph& g,
                                                        Rng& rng);

}  // namespace bsa::graph
