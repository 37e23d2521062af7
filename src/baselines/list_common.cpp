#include "baselines/list_common.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace bsa::baselines {

DataReadyProbe::DataReadyProbe(sched::Schedule& s,
                               const net::RoutingTable& table,
                               const net::HeterogeneousCostModel& costs)
    : s_(s), table_(table), costs_(costs), probe_(s, costs, /*insertion=*/true) {}

Time DataReadyProbe::tentative(TaskId t, ProcId p,
                               std::vector<LinkId>* links) {
  // One trial: successive messages of this evaluation see each other.
  probe_.begin();
  return data_ready<false>(t, p, links);
}

Time DataReadyProbe::commit(TaskId t, ProcId p) {
  return data_ready<true>(t, p, nullptr);
}

template <bool Commit>
Time DataReadyProbe::data_ready(TaskId t, ProcId p,
                                std::vector<LinkId>* links) {
  const auto& g = s_.task_graph();
  Time drt = 0;
  for (const EdgeId e : g.in_edges(t)) {
    const TaskId src = g.edge_src(e);
    BSA_REQUIRE(s_.is_placed(src), "predecessor " << src << " not scheduled");
    const ProcId ps = s_.proc_of(src);
    const Time ready = s_.finish_of(src);
    if (ps == p) {
      drt = std::max(drt, ready);
      continue;
    }
    table_.route_into(ps, p, links_);
    if constexpr (Commit) {
      drt = std::max(drt, sched::book_route(s_, costs_, e, links_, ready,
                                            /*insertion=*/true));
    } else {
      drt = std::max(drt, probe_.route(e, links_, ready));
      if (links != nullptr) {
        links->insert(links->end(), links_.begin(), links_.end());
      }
    }
  }
  return drt;
}

Time incoming_data_ready(sched::Schedule& s, const net::RoutingTable& table,
                         const net::HeterogeneousCostModel& costs, TaskId t,
                         ProcId p, bool commit) {
  DataReadyProbe probe(s, table, costs);
  return commit ? probe.commit(t, p) : probe.tentative(t, p);
}

Time incoming_data_ready_no_contention(
    const sched::Schedule& s, const net::RoutingTable& table,
    const net::HeterogeneousCostModel& costs, TaskId t, ProcId p) {
  const auto& g = s.task_graph();
  Time drt = 0;
  for (const EdgeId e : g.in_edges(t)) {
    const TaskId src = g.edge_src(e);
    BSA_REQUIRE(s.is_placed(src), "predecessor " << src << " not scheduled");
    const ProcId ps = s.proc_of(src);
    Time ready = s.finish_of(src);
    if (ps != p) {
      for (const LinkId l : table.route(ps, p)) {
        ready += costs.comm_cost(e, l);
      }
    }
    drt = std::max(drt, ready);
  }
  return drt;
}

}  // namespace bsa::baselines
