#include "core/pivot.hpp"

#include "common/check.hpp"
#include "graph/levels.hpp"

namespace bsa::core {

PivotSelection select_first_pivot(const graph::TaskGraph& g,
                                  const net::Topology& topo,
                                  const net::HeterogeneousCostModel& costs) {
  BSA_REQUIRE(topo.num_processors() >= 1, "empty topology");
  PivotSelection out;
  out.cp_length_by_proc.reserve(
      static_cast<std::size_t>(topo.num_processors()));
  const auto& comm = costs.nominal_comm_costs();
  Cost best = kInfiniteTime;
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    const auto exec = costs.exec_costs_on(p);
    const auto levels = graph::compute_levels(g, exec, comm);
    out.cp_length_by_proc.push_back(levels.cp_length);
    if (levels.cp_length < best) {
      best = levels.cp_length;
      out.pivot = p;
    }
  }
  return out;
}

}  // namespace bsa::core
