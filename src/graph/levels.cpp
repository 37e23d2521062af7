#include "graph/levels.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bsa::graph {
namespace {

void check_cost_spans(const TaskGraph& g, std::span<const Cost> exec_costs,
                      std::span<const Cost> comm_costs) {
  BSA_REQUIRE(exec_costs.size() == static_cast<std::size_t>(g.num_tasks()),
              "exec_costs size " << exec_costs.size() << " != num_tasks "
                                 << g.num_tasks());
  BSA_REQUIRE(comm_costs.size() == static_cast<std::size_t>(g.num_edges()),
              "comm_costs size " << comm_costs.size() << " != num_edges "
                                 << g.num_edges());
}

/// Calls f(s) for the successor s of each out-edge of `t` that continues
/// a critical path: its communication cost plus b-level(s) attains the
/// largest such sum, the one b-level(t) took (the same sums, compared
/// exactly).
template <class F>
void for_critical_successors(const TaskGraph& g,
                             std::span<const Cost> comm_costs,
                             std::span<const Cost> b_level, TaskId t, F f) {
  const auto via = [&](EdgeId e) {
    return comm_costs[static_cast<std::size_t>(e)] +
           b_level[static_cast<std::size_t>(g.edge_dst(e))];
  };
  Cost tail = 0;
  for (const EdgeId e : g.out_edges(t)) tail = std::max(tail, via(e));
  for (const EdgeId e : g.out_edges(t)) {
    if (via(e) == tail) f(g.edge_dst(e));
  }
}

}  // namespace

LevelSets compute_levels(const TaskGraph& g, std::span<const Cost> exec_costs,
                         std::span<const Cost> comm_costs) {
  check_cost_spans(g, exec_costs, comm_costs);
  const auto n = static_cast<std::size_t>(g.num_tasks());
  LevelSets out;
  out.t_level.assign(n, 0);
  out.b_level.assign(n, 0);

  const auto& topo = g.topological_order();
  for (const TaskId t : topo) {
    const auto ti = static_cast<std::size_t>(t);
    Cost tl = 0;
    for (const EdgeId e : g.in_edges(t)) {
      const TaskId p = g.edge_src(e);
      const auto pi = static_cast<std::size_t>(p);
      tl = std::max(tl, out.t_level[pi] + exec_costs[pi] +
                            comm_costs[static_cast<std::size_t>(e)]);
    }
    out.t_level[ti] = tl;
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId t = *it;
    const auto ti = static_cast<std::size_t>(t);
    Cost best_tail = 0;
    for (const EdgeId e : g.out_edges(t)) {
      const TaskId s = g.edge_dst(e);
      best_tail = std::max(best_tail,
                           comm_costs[static_cast<std::size_t>(e)] +
                               out.b_level[static_cast<std::size_t>(s)]);
    }
    out.b_level[ti] = exec_costs[ti] + best_tail;
  }
  // Critical paths: from the entry tasks of the largest b-level, along
  // the argmax edges.
  out.critical.assign(n, 0);
  for (const TaskId t : g.entry_tasks()) {
    out.cp_length =
        std::max(out.cp_length, out.b_level[static_cast<std::size_t>(t)]);
  }
  for (const TaskId t : topo) {
    const auto ti = static_cast<std::size_t>(t);
    if (g.in_degree(t) == 0) {
      out.critical[ti] = out.b_level[ti] == out.cp_length ? 1 : 0;
    }
    if (out.critical[ti] == 0) continue;
    for_critical_successors(g, comm_costs, out.b_level, t, [&](TaskId s) {
      out.critical[static_cast<std::size_t>(s)] = 1;
    });
  }
  return out;
}

LevelSets compute_levels(const TaskGraph& g) {
  std::vector<Cost> exec(static_cast<std::size_t>(g.num_tasks()));
  std::vector<Cost> comm(static_cast<std::size_t>(g.num_edges()));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    exec[static_cast<std::size_t>(t)] = g.task_cost(t);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    comm[static_cast<std::size_t>(e)] = g.edge_cost(e);
  }
  return compute_levels(g, exec, comm);
}

std::vector<TaskId> extract_critical_path(const TaskGraph& g,
                                          std::span<const Cost> exec_costs,
                                          std::span<const Cost> comm_costs,
                                          const LevelSets& levels, Rng& rng) {
  check_cost_spans(g, exec_costs, comm_costs);
  const auto n = static_cast<std::size_t>(g.num_tasks());
  BSA_REQUIRE(levels.t_level.size() == n && levels.b_level.size() == n,
              "levels do not match graph");

  // best_exec[t] is the largest execution-cost sum achievable on a
  // critical tail starting at t — the paper's rule for choosing among
  // multiple CPs.
  std::vector<Cost> best_exec(n, 0);
  const auto& topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto ti = static_cast<std::size_t>(*it);
    Cost best_tail = 0;
    for_critical_successors(g, comm_costs, levels.b_level, *it, [&](TaskId s) {
      best_tail = std::max(best_tail, best_exec[static_cast<std::size_t>(s)]);
    });
    best_exec[ti] = exec_costs[ti] + best_tail;
  }

  // Start candidates: entry tasks lying on a CP.
  std::vector<TaskId> starts;
  Cost best_start = -1;
  for (const TaskId t : g.entry_tasks()) {
    if (!levels.on_critical_path(t)) continue;
    const Cost v = best_exec[static_cast<std::size_t>(t)];
    if (starts.empty() || best_start < v) {
      starts.assign(1, t);
      best_start = v;
    } else if (v == best_start) {
      starts.push_back(t);
    }
  }
  BSA_ASSERT(!starts.empty(), "no critical-path entry task found");
  TaskId cur = starts[rng.index(starts.size())];

  std::vector<TaskId> path{cur};
  while (true) {
    std::vector<TaskId> nexts;
    Cost best_next = -1;
    for_critical_successors(g, comm_costs, levels.b_level, cur, [&](TaskId s) {
      const Cost v = best_exec[static_cast<std::size_t>(s)];
      if (nexts.empty() || best_next < v) {
        nexts.assign(1, s);
        best_next = v;
      } else if (v == best_next) {
        nexts.push_back(s);
      }
    });
    if (nexts.empty()) break;
    cur = nexts[rng.index(nexts.size())];
    path.push_back(cur);
  }
  return path;
}

std::vector<TaskId> extract_critical_path(const TaskGraph& g, Rng& rng) {
  std::vector<Cost> exec(static_cast<std::size_t>(g.num_tasks()));
  std::vector<Cost> comm(static_cast<std::size_t>(g.num_edges()));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    exec[static_cast<std::size_t>(t)] = g.task_cost(t);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    comm[static_cast<std::size_t>(e)] = g.edge_cost(e);
  }
  const LevelSets levels = compute_levels(g, exec, comm);
  return extract_critical_path(g, exec, comm, levels, rng);
}

}  // namespace bsa::graph
