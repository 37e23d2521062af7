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

Time DataReadyProbe::contention_free(TaskId t, ProcId p) {
  const auto& g = s_.task_graph();
  Time drt = 0;
  for (const EdgeId e : g.in_edges(t)) {
    const TaskId src = g.edge_src(e);
    BSA_REQUIRE(s_.is_placed(src), "predecessor " << src << " not scheduled");
    const ProcId ps = s_.proc_of(src);
    Time ready = s_.finish_of(src);
    if (ps != p) {
      table_.route_into(ps, p, links_);
      for (const LinkId l : links_) ready += costs_.comm_cost(e, l);
    }
    drt = std::max(drt, ready);
  }
  return drt;
}

Time incoming_data_ready(sched::Schedule& s, const net::RoutingTable& table,
                         const net::HeterogeneousCostModel& costs, TaskId t,
                         ProcId p, bool commit) {
  DataReadyProbe probe(s, table, costs);
  return commit ? probe.commit(t, p) : probe.tentative(t, p);
}

ListRun::ListRun(sched::RankScheduleResult& out,
                 const net::RoutingTable& table,
                 const net::HeterogeneousCostModel& costs, bool insertion)
    : s_(out.schedule),
      order_(out.order),
      costs_(costs),
      insertion_(insertion),
      probe_(out.schedule, table, costs) {
  const graph::TaskGraph& g = s_.task_graph();
  BSA_REQUIRE(g.num_tasks() >= 1, "empty task graph");
  BSA_REQUIRE(costs.num_tasks() == g.num_tasks() &&
                  costs.num_processors() == s_.topology().num_processors(),
              "cost model does not match graph/topology");
  order_.reserve(static_cast<std::size_t>(g.num_tasks()));
  missing_preds_.resize(static_cast<std::size_t>(g.num_tasks()));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    missing_preds_[static_cast<std::size_t>(t)] = g.in_degree(t);
    if (g.in_degree(t) == 0) ready_.push_back(t);
  }
}

std::size_t ListRun::highest_ranked(const std::vector<Cost>& ranks) const {
  std::size_t pick = 0;
  for (std::size_t i = 1; i < ready_.size(); ++i) {
    const Cost ri = ranks[static_cast<std::size_t>(ready_[i])];
    const Cost rp = ranks[static_cast<std::size_t>(ready_[pick])];
    if (rp < ri || (rp == ri && ready_[i] < ready_[pick])) {
      pick = i;
    }
  }
  return pick;
}

Time ListRun::commit(std::size_t i, ProcId p) {
  const TaskId t = ready_[i];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
  const Time da = probe_.commit(t, p);
  const Time dur = costs_.exec_cost(t, p);
  const Time start = task_slot(p, da, dur);
  s_.place_task(t, p, start, start + dur);
  order_.push_back(t);
  const graph::TaskGraph& g = s_.task_graph();
  for (const EdgeId e : g.out_edges(t)) {
    const TaskId d = g.edge_dst(e);
    if (--missing_preds_[static_cast<std::size_t>(d)] == 0) {
      ready_.push_back(d);
    }
  }
  return start;
}

}  // namespace bsa::baselines
