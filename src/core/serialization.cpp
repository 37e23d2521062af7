#include "core/serialization.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/traversal.hpp"

namespace bsa::core {
namespace {

std::vector<Cost> nominal_exec_of(const graph::TaskGraph& g) {
  std::vector<Cost> out(static_cast<std::size_t>(g.num_tasks()));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    out[static_cast<std::size_t>(t)] = g.task_cost(t);
  }
  return out;
}

std::vector<Cost> nominal_comm_of(const graph::TaskGraph& g) {
  std::vector<Cost> out(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out[static_cast<std::size_t>(e)] = g.edge_cost(e);
  }
  return out;
}

}  // namespace

SerializationResult serialize(const graph::TaskGraph& g,
                              std::span<const Cost> exec_costs,
                              std::span<const Cost> comm_costs, Rng& rng) {
  SerializationResult out;
  out.levels = graph::compute_levels(g, exec_costs, comm_costs);
  out.critical_path =
      graph::extract_critical_path(g, exec_costs, comm_costs, out.levels, rng);
  const auto n = static_cast<std::size_t>(g.num_tasks());

  // Classify: CP tasks, then IB = ancestors of CP tasks, then OB = rest.
  out.task_class.assign(n, TaskClass::kOutBranch);
  for (const TaskId t : out.critical_path) {
    out.task_class[static_cast<std::size_t>(t)] = TaskClass::kCriticalPath;
  }
  for (const TaskId cp_task : out.critical_path) {
    const auto mask = graph::ancestor_mask(g, cp_task);
    for (std::size_t t = 0; t < n; ++t) {
      if (mask[t] && out.task_class[t] == TaskClass::kOutBranch) {
        out.task_class[t] = TaskClass::kInBranch;
      }
    }
  }

  const auto& b_level = out.levels.b_level;
  const auto& t_level = out.levels.t_level;
  std::vector<char> in_order(n, 0);
  out.order.reserve(n);
  auto append = [&](TaskId t) {
    BSA_ASSERT(!in_order[static_cast<std::size_t>(t)],
               "task " << t << " serialized twice");
    in_order[static_cast<std::size_t>(t)] = 1;
    out.order.push_back(t);
  };

  // Ancestor-inclusive insertion: ensure all predecessors of `target` are
  // in the order (largest b-level first, ties by smaller t-level then
  // smaller id — the paper's step 8), then append `target` itself.
  auto add_with_ancestors = [&](TaskId target) {
    std::vector<TaskId> stack{target};
    while (!stack.empty()) {
      const TaskId t = stack.back();
      if (in_order[static_cast<std::size_t>(t)]) {
        stack.pop_back();
        continue;
      }
      TaskId best = kInvalidTask;
      for (const EdgeId e : g.in_edges(t)) {
        const TaskId p = g.edge_src(e);
        if (in_order[static_cast<std::size_t>(p)]) continue;
        if (best == kInvalidTask) {
          best = p;
          continue;
        }
        const auto pi = static_cast<std::size_t>(p);
        const auto bi = static_cast<std::size_t>(best);
        if (b_level[bi] < b_level[pi] ||
            (b_level[bi] == b_level[pi] &&
             (t_level[pi] < t_level[bi] ||
              (t_level[pi] == t_level[bi] && p < best)))) {
          best = p;
        }
      }
      if (best == kInvalidTask) {
        stack.pop_back();
        append(t);
      } else {
        stack.push_back(best);
      }
    }
  };

  // CP tasks in path order, each preceded by its missing ancestors.
  for (const TaskId cp_task : out.critical_path) {
    add_with_ancestors(cp_task);
  }

  // OB tasks in descending b-level (ties: smaller t-level, then id).
  std::vector<TaskId> ob;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!in_order[static_cast<std::size_t>(t)]) ob.push_back(t);
  }
  std::sort(ob.begin(), ob.end(), [&](TaskId a, TaskId b) {
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    if (b_level[ai] != b_level[bi]) return b_level[ai] > b_level[bi];
    if (t_level[ai] != t_level[bi]) return t_level[ai] < t_level[bi];
    return a < b;
  });
  // Appending in descending b-level alone is not precedence-safe when
  // zero-cost edges make b-levels tie, so insert each with its ancestors.
  for (const TaskId t : ob) {
    if (!in_order[static_cast<std::size_t>(t)]) add_with_ancestors(t);
  }

  BSA_ASSERT(out.order.size() == n, "serialization missed tasks");
  BSA_ASSERT(graph::is_topological_order(g, out.order),
             "serialization produced a non-topological order");
  return out;
}

SerializationResult serialize(const graph::TaskGraph& g, Rng& rng) {
  const auto exec = nominal_exec_of(g);
  const auto comm = nominal_comm_of(g);
  return serialize(g, exec, comm, rng);
}

SerializationResult serialize_by_blevel(const graph::TaskGraph& g,
                                        std::span<const Cost> exec_costs,
                                        std::span<const Cost> comm_costs,
                                        Rng& rng) {
  SerializationResult out;
  out.levels = graph::compute_levels(g, exec_costs, comm_costs);
  out.critical_path =
      graph::extract_critical_path(g, exec_costs, comm_costs, out.levels, rng);
  const auto n = static_cast<std::size_t>(g.num_tasks());

  // Classification mirrors serialize() so callers can treat the results
  // interchangeably.
  out.task_class.assign(n, TaskClass::kOutBranch);
  for (const TaskId t : out.critical_path) {
    out.task_class[static_cast<std::size_t>(t)] = TaskClass::kCriticalPath;
  }
  for (const TaskId cp_task : out.critical_path) {
    const auto mask = graph::ancestor_mask(g, cp_task);
    for (std::size_t t = 0; t < n; ++t) {
      if (mask[t] && out.task_class[t] == TaskClass::kOutBranch) {
        out.task_class[t] = TaskClass::kInBranch;
      }
    }
  }

  // Pure b-level list, made precedence-safe by inserting any
  // not-yet-included predecessors first (only relevant for zero-cost
  // ties).
  std::vector<TaskId> by_blevel(n);
  for (std::size_t t = 0; t < n; ++t) {
    by_blevel[t] = static_cast<TaskId>(t);
  }
  const auto& b_level = out.levels.b_level;
  const auto& t_level = out.levels.t_level;
  std::sort(by_blevel.begin(), by_blevel.end(), [&](TaskId a, TaskId b) {
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    if (b_level[ai] != b_level[bi]) return b_level[ai] > b_level[bi];
    if (t_level[ai] != t_level[bi]) return t_level[ai] < t_level[bi];
    return a < b;
  });

  std::vector<char> in_order(n, 0);
  out.order.reserve(n);
  std::vector<TaskId> stack;
  for (const TaskId target : by_blevel) {
    stack.assign(1, target);
    while (!stack.empty()) {
      const TaskId t = stack.back();
      if (in_order[static_cast<std::size_t>(t)]) {
        stack.pop_back();
        continue;
      }
      TaskId missing = kInvalidTask;
      for (const EdgeId e : g.in_edges(t)) {
        const TaskId p = g.edge_src(e);
        if (!in_order[static_cast<std::size_t>(p)]) {
          missing = p;
          break;
        }
      }
      if (missing == kInvalidTask) {
        stack.pop_back();
        in_order[static_cast<std::size_t>(t)] = 1;
        out.order.push_back(t);
      } else {
        stack.push_back(missing);
      }
    }
  }
  BSA_ASSERT(out.order.size() == n, "b-level serialization missed tasks");
  BSA_ASSERT(graph::is_topological_order(g, out.order),
             "b-level serialization produced a non-topological order");
  return out;
}

}  // namespace bsa::core
