#include "graph/traversal.hpp"

#include <algorithm>
#include <queue>

namespace bsa::graph {

std::vector<char> ancestor_mask(const TaskGraph& g, TaskId t) {
  std::vector<char> mask(static_cast<std::size_t>(g.num_tasks()), 0);
  std::queue<TaskId> frontier;
  frontier.push(t);
  while (!frontier.empty()) {
    const TaskId v = frontier.front();
    frontier.pop();
    for (const EdgeId e : g.in_edges(v)) {
      const TaskId u = g.edge_src(e);
      auto& seen = mask[static_cast<std::size_t>(u)];
      if (!seen) {
        seen = 1;
        frontier.push(u);
      }
    }
  }
  return mask;
}

bool is_topological_order(const TaskGraph& g,
                          const std::vector<TaskId>& order) {
  if (order.size() != static_cast<std::size_t>(g.num_tasks())) return false;
  std::vector<int> position(order.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const TaskId t = order[i];
    if (t < 0 || t >= g.num_tasks()) return false;
    if (position[static_cast<std::size_t>(t)] != -1) return false;  // dup
    position[static_cast<std::size_t>(t)] = static_cast<int>(i);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (position[static_cast<std::size_t>(g.edge_src(e))] >=
        position[static_cast<std::size_t>(g.edge_dst(e))]) {
      return false;
    }
  }
  return true;
}

int graph_depth(const TaskGraph& g) {
  std::vector<int> depth(static_cast<std::size_t>(g.num_tasks()), 1);
  int best = 0;
  for (const TaskId t : g.topological_order()) {
    const auto ti = static_cast<std::size_t>(t);
    for (const EdgeId e : g.in_edges(t)) {
      const auto pi = static_cast<std::size_t>(g.edge_src(e));
      depth[ti] = std::max(depth[ti], depth[pi] + 1);
    }
    best = std::max(best, depth[ti]);
  }
  return best;
}

}  // namespace bsa::graph
