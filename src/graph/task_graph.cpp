#include "graph/task_graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>
#include <utility>

#include "common/check.hpp"

namespace bsa::graph {

void TaskGraph::check_task(TaskId t) const {
  BSA_REQUIRE(t >= 0 && t < num_tasks(), "task id " << t << " out of range [0,"
                                                    << num_tasks() << ")");
}

void TaskGraph::check_edge(EdgeId e) const {
  BSA_REQUIRE(e >= 0 && e < num_edges(), "edge id " << e << " out of range [0,"
                                                    << num_edges() << ")");
}

EdgeId TaskGraph::find_edge(TaskId src, TaskId dst) const {
  check_task(dst);
  for (EdgeId e : out_edges(src)) {
    if (edges_[static_cast<std::size_t>(e)].dst == dst) return e;
  }
  return kInvalidEdge;
}

double TaskGraph::granularity() const noexcept {
  const Cost avg_comm = average_comm_cost();
  if (avg_comm <= 0) return kInfiniteTime;
  return average_exec_cost() / avg_comm;
}

bool TaskGraph::is_weakly_connected() const {
  if (tasks_.empty()) return true;
  std::vector<char> seen(tasks_.size(), 0);
  std::queue<TaskId> frontier;
  frontier.push(0);
  seen[0] = 1;
  int reached = 1;
  while (!frontier.empty()) {
    const TaskId t = frontier.front();
    frontier.pop();
    auto visit = [&](TaskId u) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        ++reached;
        frontier.push(u);
      }
    };
    for (EdgeId e : out_edges(t)) visit(edge_dst(e));
    for (EdgeId e : in_edges(t)) visit(edge_src(e));
  }
  return reached == num_tasks();
}

TaskId TaskGraphBuilder::add_task(Cost nominal_cost, std::string name) {
  BSA_REQUIRE(std::isfinite(nominal_cost) && nominal_cost >= 0,
              "task cost must be finite and non-negative, got "
                  << nominal_cost);
  const TaskId id = static_cast<TaskId>(tasks_.size());
  if (name.empty()) name = "T" + std::to_string(id + 1);
  tasks_.push_back(TaskGraph::Task{nominal_cost, std::move(name)});
  out_.emplace_back();
  return id;
}

EdgeId TaskGraphBuilder::add_edge(TaskId src, TaskId dst, Cost nominal_cost) {
  BSA_REQUIRE(src >= 0 && src < num_tasks(), "edge source " << src
                                                            << " unknown");
  BSA_REQUIRE(dst >= 0 && dst < num_tasks(), "edge destination " << dst
                                                                 << " unknown");
  BSA_REQUIRE(src != dst, "self loop on task " << src);
  BSA_REQUIRE(std::isfinite(nominal_cost) && nominal_cost >= 0,
              "edge cost must be finite and non-negative, got "
                  << nominal_cost);
  auto& out = out_[static_cast<std::size_t>(src)];
  for (const EdgeId e : out) {
    BSA_REQUIRE(edges_[static_cast<std::size_t>(e)].dst != dst,
                "duplicate edge " << src << " -> " << dst);
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(TaskGraph::Edge{src, dst, nominal_cost});
  out.push_back(id);
  return id;
}

TaskGraph TaskGraphBuilder::build() {
  BSA_REQUIRE(!tasks_.empty(), "cannot build an empty task graph");
  TaskGraph g;
  g.tasks_ = std::move(tasks_);
  g.edges_ = std::move(edges_);
  g.out_ = std::move(out_);
  tasks_.clear();
  edges_.clear();
  out_.clear();

  const std::size_t n = g.tasks_.size();
  g.in_.assign(n, {});
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    g.in_[static_cast<std::size_t>(g.edges_[static_cast<std::size_t>(e)].dst)]
        .push_back(e);
  }

  // Kahn's algorithm with a min-heap over ids: deterministic topological
  // order and cycle detection in one pass.
  std::vector<int> remaining(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    remaining[t] = static_cast<int>(g.in_[t].size());
  }
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (remaining[static_cast<std::size_t>(t)] == 0) ready.push(t);
  }
  g.topo_.reserve(n);
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    g.topo_.push_back(t);
    for (EdgeId e : g.out_[static_cast<std::size_t>(t)]) {
      const TaskId d = g.edges_[static_cast<std::size_t>(e)].dst;
      if (--remaining[static_cast<std::size_t>(d)] == 0) ready.push(d);
    }
  }
  BSA_REQUIRE(g.topo_.size() == n,
              "task graph contains a cycle (" << g.topo_.size() << " of " << n
                                              << " tasks orderable)");

  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (g.in_[static_cast<std::size_t>(t)].empty()) g.entries_.push_back(t);
    if (g.out_[static_cast<std::size_t>(t)].empty()) g.exits_.push_back(t);
  }
  for (const auto& task : g.tasks_) g.total_exec_ += task.nominal_cost;
  for (const auto& edge : g.edges_) g.total_comm_ += edge.nominal_cost;
  return g;
}

}  // namespace bsa::graph
