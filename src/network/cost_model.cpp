#include "network/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace bsa::net {
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

/// Every actual cost is a nominal cost times a factor of at most
/// `max_factor`. Checked once per model, so no cost query can return
/// infinity and none pays for a check.
void require_finite_products(const std::vector<Cost>& nominal,
                             Cost max_factor, const char* what) {
  const auto it = std::max_element(nominal.begin(), nominal.end());
  if (it == nominal.end()) return;
  BSA_REQUIRE(std::isfinite(*it * max_factor),
              what << ' ' << (it - nominal.begin()) << " cost " << *it
                   << " times factor " << max_factor
                   << " overflows the cost range");
}

/// Upper bound on the hops of a shortest route: the diameter is at most
/// twice processor 0's eccentricity (u -> 0 -> v) and at most P - 1.
/// One BFS, O(P + L).
int route_hop_bound(const Topology& topo) {
  const int procs = topo.num_processors();
  std::vector<int> dist(static_cast<std::size_t>(procs), -1);
  std::vector<ProcId> queue{0};
  dist[0] = 0;
  int ecc = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ProcId p = queue[head];
    const int d = dist[static_cast<std::size_t>(p)];
    ecc = std::max(ecc, d);
    for (const ProcId q : topo.neighbors(p)) {
      if (dist[static_cast<std::size_t>(q)] >= 0) continue;
      dist[static_cast<std::size_t>(q)] = d + 1;
      queue.push_back(q);
    }
  }
  return std::min(procs - 1, 2 * ecc);
}

// Distinct stream tags so exec and comm factor draws never collide.
constexpr std::uint64_t kExecStream = 0x65786563ULL;  // "exec"
constexpr std::uint64_t kCommStream = 0x636F6D6DULL;  // "comm"

}  // namespace

HeterogeneousCostModel HeterogeneousCostModel::uniform(
    const graph::TaskGraph& g, const Topology& topo, int exec_lo, int exec_hi,
    int link_lo, int link_hi, std::uint64_t seed) {
  BSA_REQUIRE(exec_lo >= 1 && exec_lo <= exec_hi,
              "bad exec factor range [" << exec_lo << "," << exec_hi << "]");
  BSA_REQUIRE(link_lo >= 1 && link_lo <= link_hi,
              "bad link factor range [" << link_lo << "," << link_hi << "]");
  HeterogeneousCostModel cm;
  cm.n_ = g.num_tasks();
  cm.m_ = topo.num_processors();
  cm.num_links_ = topo.num_links();
  cm.exec_mode_ = ExecMode::kHashed;
  cm.comm_mode_ = CommMode::kHashed;
  cm.nominal_exec_ = nominal_exec_of(g);
  cm.nominal_comm_ = nominal_comm_of(g);
  require_finite_products(cm.nominal_exec_, exec_hi, "task");
  require_finite_products(cm.nominal_comm_, link_hi, "edge");
  cm.seed_ = seed;
  cm.exec_lo_ = exec_lo;
  cm.exec_hi_ = exec_hi;
  cm.link_lo_ = link_lo;
  cm.link_hi_ = link_hi;
  cm.finalize(topo);
  return cm;
}

HeterogeneousCostModel HeterogeneousCostModel::uniform_processor_speeds(
    const graph::TaskGraph& g, const Topology& topo, int exec_lo, int exec_hi,
    int link_lo, int link_hi, std::uint64_t seed) {
  BSA_REQUIRE(exec_lo >= 1 && exec_lo <= exec_hi,
              "bad exec factor range [" << exec_lo << "," << exec_hi << "]");
  BSA_REQUIRE(link_lo >= 1 && link_lo <= link_hi,
              "bad link factor range [" << link_lo << "," << link_hi << "]");
  HeterogeneousCostModel cm;
  cm.n_ = g.num_tasks();
  cm.m_ = topo.num_processors();
  cm.num_links_ = topo.num_links();
  cm.exec_mode_ = ExecMode::kProcessorSpeed;
  cm.comm_mode_ = CommMode::kLinkSpeed;
  cm.nominal_exec_ = nominal_exec_of(g);
  cm.nominal_comm_ = nominal_comm_of(g);
  require_finite_products(cm.nominal_exec_, exec_hi, "task");
  require_finite_products(cm.nominal_comm_, link_hi, "edge");
  cm.proc_speed_.resize(static_cast<std::size_t>(cm.m_));
  for (ProcId p = 0; p < cm.m_; ++p) {
    cm.proc_speed_[static_cast<std::size_t>(p)] =
        static_cast<Cost>(hashed_uniform_int(
            seed ^ kExecStream, static_cast<std::uint64_t>(p), exec_lo,
            exec_hi));
  }
  cm.link_speed_.resize(static_cast<std::size_t>(cm.num_links_));
  for (LinkId l = 0; l < cm.num_links_; ++l) {
    cm.link_speed_[static_cast<std::size_t>(l)] =
        static_cast<Cost>(hashed_uniform_int(
            seed ^ kCommStream, static_cast<std::uint64_t>(l), link_lo,
            link_hi));
  }
  cm.finalize(topo);
  return cm;
}

HeterogeneousCostModel HeterogeneousCostModel::homogeneous(
    const graph::TaskGraph& g, const Topology& topo) {
  return uniform(g, topo, 1, 1, 1, 1, /*seed=*/0);
}

HeterogeneousCostModel HeterogeneousCostModel::from_exec_matrix(
    const graph::TaskGraph& g, const Topology& topo,
    std::vector<Cost> exec_matrix, Cost link_factor) {
  HeterogeneousCostModel cm;
  cm.n_ = g.num_tasks();
  cm.m_ = topo.num_processors();
  cm.num_links_ = topo.num_links();
  BSA_REQUIRE(exec_matrix.size() ==
                  static_cast<std::size_t>(cm.n_) * static_cast<std::size_t>(cm.m_),
              "exec matrix size " << exec_matrix.size() << " != tasks*procs "
                                  << cm.n_ * cm.m_);
  for (std::size_t i = 0; i < exec_matrix.size(); ++i) {
    const Cost c = exec_matrix[i];
    BSA_REQUIRE(std::isfinite(c) && c >= 0,
                "exec matrix cost of task "
                    << i / static_cast<std::size_t>(cm.m_) << " on processor "
                    << i % static_cast<std::size_t>(cm.m_)
                    << " must be finite and non-negative, got " << c);
  }
  BSA_REQUIRE(std::isfinite(link_factor) && link_factor >= 0,
              "link factor must be finite and non-negative, got "
                  << link_factor);
  cm.exec_mode_ = ExecMode::kMatrix;
  cm.comm_mode_ = CommMode::kFixedFactor;
  cm.nominal_exec_ = nominal_exec_of(g);
  cm.nominal_comm_ = nominal_comm_of(g);
  require_finite_products(cm.nominal_comm_, link_factor, "edge");
  cm.exec_matrix_ = std::move(exec_matrix);
  cm.link_factor_ = link_factor;
  cm.finalize(topo);
  return cm;
}

Cost HeterogeneousCostModel::exec_cost(TaskId t, ProcId p) const {
  BSA_REQUIRE(t >= 0 && t < n_, "task id " << t << " out of range");
  BSA_REQUIRE(p >= 0 && p < m_, "processor id " << p << " out of range");
  const auto idx =
      static_cast<std::size_t>(t) * static_cast<std::size_t>(m_) +
      static_cast<std::size_t>(p);
  if (exec_mode_ == ExecMode::kMatrix) return exec_matrix_[idx];
  if (exec_mode_ == ExecMode::kProcessorSpeed) {
    return proc_speed_[static_cast<std::size_t>(p)] *
           nominal_exec_[static_cast<std::size_t>(t)];
  }
  const auto factor = static_cast<Cost>(hashed_uniform_int(
      seed_ ^ kExecStream, static_cast<std::uint64_t>(idx), exec_lo_,
      exec_hi_));
  return factor * nominal_exec_[static_cast<std::size_t>(t)];
}

Cost HeterogeneousCostModel::comm_cost(EdgeId e, LinkId l) const {
  BSA_REQUIRE(e >= 0 && e < num_edges(), "edge id " << e << " out of range");
  BSA_REQUIRE(l >= 0 && l < num_links_, "link id " << l << " out of range");
  if (comm_mode_ == CommMode::kFixedFactor) {
    return link_factor_ * nominal_comm_[static_cast<std::size_t>(e)];
  }
  if (comm_mode_ == CommMode::kLinkSpeed) {
    return link_speed_[static_cast<std::size_t>(l)] *
           nominal_comm_[static_cast<std::size_t>(e)];
  }
  const auto idx = static_cast<std::uint64_t>(e) *
                       static_cast<std::uint64_t>(num_links_) +
                   static_cast<std::uint64_t>(l);
  const auto factor = static_cast<Cost>(
      hashed_uniform_int(seed_ ^ kCommStream, idx, link_lo_, link_hi_));
  return factor * nominal_comm_[static_cast<std::size_t>(e)];
}

std::vector<Cost> HeterogeneousCostModel::exec_costs_on(ProcId p) const {
  std::vector<Cost> out(static_cast<std::size_t>(n_));
  for (TaskId t = 0; t < n_; ++t) {
    out[static_cast<std::size_t>(t)] = exec_cost(t, p);
  }
  return out;
}

Cost HeterogeneousCostModel::min_exec_cost(TaskId t) const {
  BSA_REQUIRE(t >= 0 && t < n_, "task id " << t << " out of range");
  return min_exec_[static_cast<std::size_t>(t)];
}

Cost HeterogeneousCostModel::median_exec_cost(TaskId t) const {
  BSA_REQUIRE(t >= 0 && t < n_, "task id " << t << " out of range");
  return median_exec_[static_cast<std::size_t>(t)];
}

void HeterogeneousCostModel::finalize(const Topology& topo) {
  min_exec_.resize(static_cast<std::size_t>(n_));
  median_exec_.resize(static_cast<std::size_t>(n_));
  std::vector<Cost> sorted(static_cast<std::size_t>(m_));
  Cost exec_span = 0;  // sum over tasks of the largest execution cost
  for (TaskId t = 0; t < n_; ++t) {
    for (ProcId p = 0; p < m_; ++p) {
      sorted[static_cast<std::size_t>(p)] = exec_cost(t, p);
    }
    std::sort(sorted.begin(), sorted.end());
    min_exec_[static_cast<std::size_t>(t)] = sorted.front();
    const std::size_t mid = sorted.size() / 2;
    median_exec_[static_cast<std::size_t>(t)] =
        sorted.size() % 2 == 1 ? sorted[mid]
                               : 0.5 * (sorted[mid - 1] + sorted[mid]);
    exec_span += sorted.back();
  }

  // The time horizon: every task at its slowest, one after another, and
  // every message at its slowest over a longest shortest route. The
  // start and finish times the schedulers form are sums of such terms,
  // so a finite horizon keeps them finite; checked once here, not per
  // addition.
  const int hops = route_hop_bound(topo);
  Cost horizon = exec_span;
  if (hops > 0 && !nominal_comm_.empty()) {
    Cost max_factor = link_factor_;
    if (comm_mode_ == CommMode::kHashed) max_factor = link_hi_;
    if (comm_mode_ == CommMode::kLinkSpeed) {
      max_factor = *std::max_element(link_speed_.begin(), link_speed_.end());
    }
    Cost comm_span = 0;
    for (const Cost c : nominal_comm_) comm_span += c;
    horizon += comm_span * max_factor * hops;
  }
  BSA_REQUIRE(std::isfinite(horizon),
              "time horizon is not finite: the tasks' largest execution "
              "costs sum to "
                  << exec_span << ", and the messages' largest costs over "
                  << hops << " hop(s) overflow the cost range on top");
}

}  // namespace bsa::net
