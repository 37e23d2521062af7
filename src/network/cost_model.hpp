#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/topology.hpp"

/// \file cost_model.hpp
/// Heterogeneity cost model (§2.1, §3 of the paper).
///
/// Actual execution cost of task T_i on processor P_x is h_ix * τ_i and
/// the actual cost of message M_ij on link L_xy is h'_ijxy * c_ij, where
/// the nominal costs τ/c are the costs on the *fastest* machine and the
/// factors h are >= 1.
///
/// Two backing stores are supported:
///  * an explicit actual-execution-cost matrix (the paper's Table 1), and
///  * lazily hashed uniform factors h,h' ~ U[lo,hi] drawn deterministically
///    from (seed, task, processor) / (seed, edge, link). This realises the
///    paper's experimental setting (U[1,50] by default, U[1,R] for the
///    Figure 7 heterogeneity sweep) without materialising an e x |L| table.

namespace bsa::net {

class HeterogeneousCostModel {
 public:
  /// Integer factors drawn uniformly from [exec_lo, exec_hi] per
  /// (task, processor) and [link_lo, link_hi] per (edge, link): the
  /// paper's most literal model (§2.1, Table 1 is of this form).
  static HeterogeneousCostModel uniform(const graph::TaskGraph& g,
                                        const Topology& topo, int exec_lo,
                                        int exec_hi, int link_lo, int link_hi,
                                        std::uint64_t seed);

  /// One integer speed factor per *processor* (h_ix = s_x for every task)
  /// and one per *link*. This is the reading of the paper's experimental
  /// setup suggested by §3's "a large [heterogeneity] range implies that
  /// there are more slow processors in the system", and it is what the
  /// figure-reproduction benches use by default (see DESIGN.md §3).
  static HeterogeneousCostModel uniform_processor_speeds(
      const graph::TaskGraph& g, const Topology& topo, int exec_lo,
      int exec_hi, int link_lo, int link_hi, std::uint64_t seed);

  /// All factors 1 — a homogeneous system running at nominal cost.
  static HeterogeneousCostModel homogeneous(const graph::TaskGraph& g,
                                            const Topology& topo);

  /// Explicit actual execution costs: `exec_matrix[t * m + p]` is the
  /// actual cost of task t on processor p (the paper's Table 1). Links use
  /// the fixed factor `link_factor` (1 in the paper's example).
  static HeterogeneousCostModel from_exec_matrix(
      const graph::TaskGraph& g, const Topology& topo,
      std::vector<Cost> exec_matrix, Cost link_factor = 1);

  /// Actual execution cost h_ix * τ_i.
  [[nodiscard]] Cost exec_cost(TaskId t, ProcId p) const;
  /// Actual communication cost h'_ijxy * c_ij.
  [[nodiscard]] Cost comm_cost(EdgeId e, LinkId l) const;

  /// Column of exec costs for one processor (indexed by TaskId); the
  /// per-processor cost vector used by BSA's pivot selection.
  [[nodiscard]] std::vector<Cost> exec_costs_on(ProcId p) const;

  /// Nominal communication costs indexed by EdgeId (used whenever a level
  /// computation needs per-edge costs irrespective of link placement).
  [[nodiscard]] const std::vector<Cost>& nominal_comm_costs() const noexcept {
    return nominal_comm_;
  }

  /// Fastest / median execution cost of a task across processors
  /// (median is what the DLS baseline's Δ term uses).
  [[nodiscard]] Cost min_exec_cost(TaskId t) const;
  [[nodiscard]] Cost median_exec_cost(TaskId t) const;

  [[nodiscard]] int num_tasks() const noexcept { return n_; }
  [[nodiscard]] int num_processors() const noexcept { return m_; }
  [[nodiscard]] int num_edges() const noexcept {
    return static_cast<int>(nominal_comm_.size());
  }
  [[nodiscard]] int num_links() const noexcept { return num_links_; }

 private:
  HeterogeneousCostModel() = default;
  /// Cache the per-task summaries, then reject an instance whose time
  /// horizon (every task's largest execution cost plus every message's
  /// largest cost over a longest shortest route of `topo`) is not
  /// finite, with a PreconditionError. O(n m log m + E + P + L).
  void finalize(const Topology& topo);

  enum class ExecMode { kMatrix, kHashed, kProcessorSpeed };
  enum class CommMode { kFixedFactor, kHashed, kLinkSpeed };

  int n_ = 0;
  int m_ = 0;
  int num_links_ = 0;

  ExecMode exec_mode_ = ExecMode::kHashed;
  CommMode comm_mode_ = CommMode::kFixedFactor;

  std::vector<Cost> nominal_exec_;  // indexed by TaskId
  std::vector<Cost> nominal_comm_;  // indexed by EdgeId

  // kMatrix: actual costs, row-major task x processor.
  std::vector<Cost> exec_matrix_;
  // kHashed parameters.
  std::uint64_t seed_ = 0;
  int exec_lo_ = 1, exec_hi_ = 1;
  int link_lo_ = 1, link_hi_ = 1;
  Cost link_factor_ = 1;
  // kProcessorSpeed / kLinkSpeed: one factor per processor / link.
  std::vector<Cost> proc_speed_;
  std::vector<Cost> link_speed_;

  // Cached per-task summaries.
  std::vector<Cost> min_exec_;
  std::vector<Cost> median_exec_;
};

}  // namespace bsa::net
