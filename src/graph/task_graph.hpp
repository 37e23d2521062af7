#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

/// \file task_graph.hpp
/// The weighted directed-acyclic task-graph model of §2.1 of the paper.
///
/// A parallel program is a set of tasks {T_1..T_n} with a partial order
/// T_i < T_j realised by directed edges carrying messages M_ij. Each task
/// has a *nominal* execution cost τ_i (its cost on the reference — fastest —
/// machine) and each edge a nominal communication cost c_ij. Actual costs
/// on a concrete processor/link are obtained by multiplying with the
/// heterogeneity factors held by a HeterogeneousCostModel.
///
/// TaskGraph is immutable; construct one through TaskGraphBuilder, which
/// validates acyclicity and edge sanity at build() time.

namespace bsa::graph {

/// Immutable weighted DAG. Task and edge ids are dense indices.
class TaskGraph {
 public:
  struct Task {
    Cost nominal_cost = 0;
    std::string name;
  };
  struct Edge {
    TaskId src = kInvalidTask;
    TaskId dst = kInvalidTask;
    Cost nominal_cost = 0;
  };

  [[nodiscard]] int num_tasks() const noexcept {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] int num_edges() const noexcept {
    return static_cast<int>(edges_.size());
  }

  [[nodiscard]] Cost task_cost(TaskId t) const { return tasks_at(t).nominal_cost; }
  [[nodiscard]] const std::string& task_name(TaskId t) const {
    return tasks_at(t).name;
  }
  [[nodiscard]] Cost edge_cost(EdgeId e) const { return edges_at(e).nominal_cost; }
  [[nodiscard]] TaskId edge_src(EdgeId e) const { return edges_at(e).src; }
  [[nodiscard]] TaskId edge_dst(EdgeId e) const { return edges_at(e).dst; }

  /// Edges whose destination is `t` (incoming messages).
  [[nodiscard]] std::span<const EdgeId> in_edges(TaskId t) const {
    check_task(t);
    return in_[static_cast<std::size_t>(t)];
  }
  /// Edges whose source is `t` (outgoing messages).
  [[nodiscard]] std::span<const EdgeId> out_edges(TaskId t) const {
    check_task(t);
    return out_[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] int in_degree(TaskId t) const {
    return static_cast<int>(in_edges(t).size());
  }
  [[nodiscard]] int out_degree(TaskId t) const {
    return static_cast<int>(out_edges(t).size());
  }

  /// The edge src→dst, or kInvalidEdge when absent. O(out_degree(src)).
  [[nodiscard]] EdgeId find_edge(TaskId src, TaskId dst) const;

  /// Tasks with no predecessors / successors, in id order.
  [[nodiscard]] const std::vector<TaskId>& entry_tasks() const noexcept {
    return entries_;
  }
  [[nodiscard]] const std::vector<TaskId>& exit_tasks() const noexcept {
    return exits_;
  }

  /// A topological order computed at build time (Kahn, smallest id first —
  /// deterministic).
  [[nodiscard]] const std::vector<TaskId>& topological_order() const noexcept {
    return topo_;
  }

  [[nodiscard]] Cost total_exec_cost() const noexcept { return total_exec_; }
  [[nodiscard]] Cost total_comm_cost() const noexcept { return total_comm_; }
  [[nodiscard]] Cost average_exec_cost() const noexcept {
    return tasks_.empty() ? 0 : total_exec_ / static_cast<Cost>(tasks_.size());
  }
  [[nodiscard]] Cost average_comm_cost() const noexcept {
    return edges_.empty() ? 0 : total_comm_ / static_cast<Cost>(edges_.size());
  }
  /// Granularity as defined in §3: average exec cost / average comm cost.
  /// Returns +inf for graphs without edges.
  [[nodiscard]] double granularity() const noexcept;

  /// True when the underlying undirected graph is connected (the paper
  /// assumes connected task graphs: n-1 <= e).
  [[nodiscard]] bool is_weakly_connected() const;

 private:
  friend class TaskGraphBuilder;
  TaskGraph() = default;

  void check_task(TaskId t) const;
  void check_edge(EdgeId e) const;
  [[nodiscard]] const Task& tasks_at(TaskId t) const {
    check_task(t);
    return tasks_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const Edge& edges_at(EdgeId e) const {
    check_edge(e);
    return edges_[static_cast<std::size_t>(e)];
  }

  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> in_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<TaskId> entries_;
  std::vector<TaskId> exits_;
  std::vector<TaskId> topo_;
  Cost total_exec_ = 0;
  Cost total_comm_ = 0;
};

/// Mutable builder; build() validates and freezes the graph.
class TaskGraphBuilder {
 public:
  /// Add a task with nominal cost >= 0; returns its id. An empty name is
  /// replaced by "T<i+1>" (1-based, matching the paper's numbering).
  TaskId add_task(Cost nominal_cost, std::string name = {});

  /// Add a directed edge; throws on self loops, unknown endpoints,
  /// duplicate (src,dst) pairs, or negative cost. O(out_degree(src)).
  EdgeId add_edge(TaskId src, TaskId dst, Cost nominal_cost);

  [[nodiscard]] int num_tasks() const noexcept {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] int num_edges() const noexcept {
    return static_cast<int>(edges_.size());
  }

  /// Validate (acyclicity) and produce the immutable graph.
  /// Throws PreconditionError when the edge set contains a cycle or when
  /// the graph is empty. The builder is left empty afterwards.
  [[nodiscard]] TaskGraph build();

 private:
  std::vector<TaskGraph::Task> tasks_;
  std::vector<TaskGraph::Edge> edges_;
  /// Out-edges by source task in ascending id order; moved into the graph.
  std::vector<std::vector<EdgeId>> out_;
};

}  // namespace bsa::graph
