#include "baselines/list_common.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "sched/link_probe.hpp"

namespace bsa::baselines {

Time incoming_data_ready(sched::Schedule& s, const net::RoutingTable& table,
                         const net::HeterogeneousCostModel& costs, TaskId t,
                         ProcId p, bool commit) {
  const auto& g = s.task_graph();
  // A tentative evaluation books into a probe overlay, so successive
  // messages of this evaluation see each other; a commit books for real.
  std::optional<sched::LinkProbe> probe;
  if (!commit) {
    probe.emplace(s, costs, /*insertion=*/true);
    probe->begin();
  }
  Time drt = 0;
  for (const EdgeId e : g.in_edges(t)) {
    const TaskId src = g.edge_src(e);
    BSA_REQUIRE(s.is_placed(src), "predecessor " << src << " not scheduled");
    const ProcId ps = s.proc_of(src);
    const Time ready = s.finish_of(src);
    if (ps == p) {
      drt = std::max(drt, ready);
      continue;
    }
    const std::vector<LinkId> links = table.route(ps, p);
    drt = std::max(drt, commit ? sched::book_route(s, costs, e, links, ready,
                                                   /*insertion=*/true)
                               : probe->route(e, links, ready));
  }
  return drt;
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
