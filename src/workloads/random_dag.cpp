#include "workloads/random_dag.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/check.hpp"

namespace bsa::workloads {
namespace {

/// Disjoint-set union used to track weak connectivity while edges are
/// generated.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Returns true when the sets were distinct (a merge happened).
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

graph::TaskGraph random_layered_dag(const RandomDagParams& params) {
  BSA_REQUIRE(params.num_tasks >= 2, "need at least two tasks");
  BSA_REQUIRE(comm_costs_in_range(params.granularity,
                                  CostParams{params.exec_lo, params.exec_hi}),
              "granularity " << params.granularity
                             << " must be finite, > 0 and keep communication "
                                "costs below 2^63");
  BSA_REQUIRE(params.max_preds >= 1, "max_preds must be >= 1");
  const auto n = static_cast<std::size_t>(params.num_tasks);
  Rng rng(derive_seed(params.seed, 0x7264ULL));  // "rd"

  // --- layer assignment ----------------------------------------------------
  const double base_layers =
      params.layer_factor * std::sqrt(static_cast<double>(n));
  int num_layers = std::max(
      2, static_cast<int>(std::lround(base_layers * rng.uniform_real(0.75, 1.25))));
  num_layers = std::min(num_layers, params.num_tasks);

  // One task per layer first (layers must be non-empty), rest at random.
  std::vector<int> layer_of(n);
  for (int l = 0; l < num_layers; ++l) {
    layer_of[static_cast<std::size_t>(l)] = l;
  }
  for (std::size_t t = static_cast<std::size_t>(num_layers); t < n; ++t) {
    layer_of[t] = static_cast<int>(rng.index(static_cast<std::size_t>(num_layers)));
  }
  // Task ids in layer order => ids are topologically ordered.
  std::sort(layer_of.begin(), layer_of.end());
  std::vector<std::vector<TaskId>> layers(static_cast<std::size_t>(num_layers));
  for (std::size_t t = 0; t < n; ++t) {
    layers[static_cast<std::size_t>(layer_of[t])].push_back(
        static_cast<TaskId>(t));
  }

  // --- edge generation -------------------------------------------------------
  std::set<std::pair<TaskId, TaskId>> edges;
  UnionFind uf(n);
  auto add_edge = [&](TaskId a, TaskId b) {
    if (edges.insert({a, b}).second) {
      uf.unite(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
      return true;
    }
    return false;
  };
  auto random_task_in_layer = [&](int l) {
    const auto& ts = layers[static_cast<std::size_t>(l)];
    return ts[rng.index(ts.size())];
  };

  std::vector<int> out_degree(n, 0);
  for (int l = 1; l < num_layers; ++l) {
    for (const TaskId t : layers[static_cast<std::size_t>(l)]) {
      const auto preds = static_cast<int>(
          rng.uniform_int(1, params.max_preds));
      for (int k = 0; k < preds; ++k) {
        // Bias towards the adjacent layer (70%).
        const int src_layer =
            (l == 1 || rng.bernoulli(0.7))
                ? l - 1
                : static_cast<int>(rng.index(static_cast<std::size_t>(l)));
        const TaskId src = random_task_in_layer(src_layer);
        if (add_edge(src, t)) {
          ++out_degree[static_cast<std::size_t>(src)];
        }
      }
    }
  }
  // Every non-last-layer task needs a successor.
  for (int l = 0; l + 1 < num_layers; ++l) {
    for (const TaskId t : layers[static_cast<std::size_t>(l)]) {
      if (out_degree[static_cast<std::size_t>(t)] > 0) continue;
      const TaskId dst = random_task_in_layer(l + 1);
      if (add_edge(t, dst)) ++out_degree[static_cast<std::size_t>(t)];
    }
  }
  // Bridge residual weakly-connected components: connect a representative
  // of each non-root component to a task in a different layer.
  for (std::size_t t = 0; t < n; ++t) {
    if (uf.find(t) == uf.find(0)) continue;
    const auto tid = static_cast<TaskId>(t);
    const int l = layer_of[t];
    // Pick any task in another layer already connected to component 0.
    for (std::size_t u = 0; u < n; ++u) {
      if (uf.find(u) != uf.find(0)) continue;
      const auto uid = static_cast<TaskId>(u);
      if (layer_of[u] < l) {
        if (add_edge(uid, tid)) break;
      } else if (layer_of[u] > l) {
        if (add_edge(tid, uid)) break;
      }
    }
    // A same-layer-only residue is impossible: every layer except the
    // last has out-edges and the one-per-layer seeding guarantees other
    // layers exist.
  }

  // --- materialise -----------------------------------------------------------
  CostParams cp;
  cp.exec_lo = params.exec_lo;
  cp.exec_hi = params.exec_hi;
  cp.granularity = params.granularity;
  cp.seed = params.seed;
  graph::TaskGraphBuilder b;
  for (std::size_t t = 0; t < n; ++t) {
    (void)b.add_task(draw_exec_cost(rng, cp));
  }
  for (const auto& [src, dst] : edges) {
    (void)b.add_edge(src, dst, draw_comm_cost(rng, cp));
  }
  graph::TaskGraph g = b.build();
  BSA_ASSERT(g.is_weakly_connected(), "random DAG not connected");
  return g;
}

graph::TaskGraph series_parallel(int depth, int max_branch,
                                 const CostParams& costs) {
  BSA_REQUIRE(depth >= 1, "series_parallel needs depth >= 1");
  BSA_REQUIRE(max_branch >= 2 && max_branch <= 32,
              "series_parallel needs max_branch in [2, 32]");
  // Expected growth is ~2.5x edges per round; cap the rounds so a typo
  // cannot request an astronomically large graph.
  BSA_REQUIRE(depth <= 14, "series_parallel depth " << depth << " > 14");
  Rng rng(derive_seed(costs.seed, 0x7370ULL));  // "sp"

  // --- recursive two-terminal expansion over abstract nodes ----------------
  struct AbsEdge {
    int u, v;
  };
  std::vector<AbsEdge> edges{{0, 1}};  // node 0 = source, node 1 = sink
  int num_nodes = 2;
  for (int d = 0; d < depth; ++d) {
    // Worst-case growth (every edge parallel-expanded at max_branch) is
    // far above the expectation; bound the realised size deterministically.
    BSA_REQUIRE(edges.size() <= 10000000,
                "series_parallel expansion exceeds 10M edges — reduce "
                "depth/branch");
    std::vector<AbsEdge> next;
    next.reserve(edges.size() * 2);
    for (const AbsEdge e : edges) {
      // Leave some edges alone each round so the decomposition tree is
      // irregular rather than a perfect recursion.
      if (!rng.bernoulli(0.6)) {
        next.push_back(e);
        continue;
      }
      // Series composition is a one-branch parallel composition; every
      // branch routes through a fresh node, so no duplicate (u,v) pairs
      // ever arise.
      const int branches =
          rng.bernoulli(0.5)
              ? 1
              : static_cast<int>(rng.uniform_int(2, max_branch));
      for (int k = 0; k < branches; ++k) {
        const int w = num_nodes++;
        next.push_back({e.u, w});
        next.push_back({w, e.v});
      }
    }
    edges = std::move(next);
  }

  // --- relabel topologically (Kahn, smallest abstract id first) ------------
  const auto n = static_cast<std::size_t>(num_nodes);
  std::vector<std::vector<int>> out(n);
  std::vector<int> in_degree(n, 0);
  for (const AbsEdge& e : edges) {
    out[static_cast<std::size_t>(e.u)].push_back(e.v);
    ++in_degree[static_cast<std::size_t>(e.v)];
  }
  std::set<int> ready;
  for (int v = 0; v < num_nodes; ++v) {
    if (in_degree[static_cast<std::size_t>(v)] == 0) ready.insert(v);
  }
  std::vector<TaskId> new_id(n, kInvalidTask);
  TaskId next_id = 0;
  while (!ready.empty()) {
    const int v = *ready.begin();
    ready.erase(ready.begin());
    new_id[static_cast<std::size_t>(v)] = next_id++;
    for (const int w : out[static_cast<std::size_t>(v)]) {
      if (--in_degree[static_cast<std::size_t>(w)] == 0) ready.insert(w);
    }
  }
  BSA_ASSERT(static_cast<int>(next_id) == num_nodes,
             "series_parallel produced a cycle");

  // --- materialise in new-id order so costs are deterministic --------------
  std::vector<std::pair<TaskId, TaskId>> sorted_edges;
  sorted_edges.reserve(edges.size());
  for (const AbsEdge& e : edges) {
    sorted_edges.emplace_back(new_id[static_cast<std::size_t>(e.u)],
                              new_id[static_cast<std::size_t>(e.v)]);
  }
  std::sort(sorted_edges.begin(), sorted_edges.end());
  graph::TaskGraphBuilder b;
  for (int v = 0; v < num_nodes; ++v) {
    (void)b.add_task(draw_exec_cost(rng, costs));
  }
  for (const auto& [src, dst] : sorted_edges) {
    (void)b.add_edge(src, dst, draw_comm_cost(rng, costs));
  }
  graph::TaskGraph g = b.build();
  BSA_ASSERT(g.is_weakly_connected(), "series-parallel graph not connected");
  return g;
}

}  // namespace bsa::workloads
