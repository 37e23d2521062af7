#include "sched/retime.hpp"

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "sched/link_probe.hpp"

namespace bsa::sched {
namespace {

/// Dense node numbering for the constraint graph: tasks first, then one
/// node per route hop (per-edge contiguous blocks).
struct NodeIndex {
  int num_tasks = 0;
  std::vector<int> hop_base;  // by EdgeId; hop (e,k) -> num_tasks + base + k
  int total = 0;

  explicit NodeIndex(const Schedule& s) {
    const auto& g = s.task_graph();
    num_tasks = g.num_tasks();
    hop_base.resize(static_cast<std::size_t>(g.num_edges()));
    int acc = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      hop_base[static_cast<std::size_t>(e)] = acc;
      acc += static_cast<int>(s.route_of(e).size());
    }
    total = num_tasks + acc;
  }

  [[nodiscard]] int task_node(TaskId t) const { return t; }
  [[nodiscard]] int hop_node(EdgeId e, int k) const {
    return num_tasks + hop_base[static_cast<std::size_t>(e)] + k;
  }
};

}  // namespace

bool try_retime(Schedule& s, const net::HeterogeneousCostModel& costs,
                Time* makespan) {
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  const NodeIndex idx(s);

  std::vector<std::vector<int>> succ(static_cast<std::size_t>(idx.total));
  std::vector<int> indegree(static_cast<std::size_t>(idx.total), 0);
  std::vector<char> active(static_cast<std::size_t>(idx.total), 0);

  auto add_dep = [&](int from, int to) {
    succ[static_cast<std::size_t>(from)].push_back(to);
    ++indegree[static_cast<std::size_t>(to)];
  };

  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (s.is_placed(t)) active[static_cast<std::size_t>(idx.task_node(t))] = 1;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& route = s.route_of(e);
    for (int k = 0; k < static_cast<int>(route.size()); ++k) {
      active[static_cast<std::size_t>(idx.hop_node(e, k))] = 1;
    }
  }

  // Precedence and route-chaining dependencies.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const TaskId src = g.edge_src(e);
    const TaskId dst = g.edge_dst(e);
    const auto& route = s.route_of(e);
    if (route.empty()) {
      if (s.is_placed(src) && s.is_placed(dst)) {
        add_dep(idx.task_node(src), idx.task_node(dst));
      }
      continue;
    }
    BSA_ASSERT(s.is_placed(src), "routed message with unplaced source");
    add_dep(idx.task_node(src), idx.hop_node(e, 0));
    for (int k = 0; k + 1 < static_cast<int>(route.size()); ++k) {
      add_dep(idx.hop_node(e, k), idx.hop_node(e, k + 1));
    }
    if (s.is_placed(dst)) {
      add_dep(idx.hop_node(e, static_cast<int>(route.size()) - 1),
              idx.task_node(dst));
    }
  }
  // Processor order chains.
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    const auto& order = s.tasks_on(p);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      add_dep(idx.task_node(order[i]), idx.task_node(order[i + 1]));
    }
  }
  // Link transmission-order chains.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const auto& bookings = s.bookings_on(l);
    for (std::size_t i = 0; i + 1 < bookings.size(); ++i) {
      add_dep(idx.hop_node(bookings[i].edge, bookings[i].hop_index),
              idx.hop_node(bookings[i + 1].edge, bookings[i + 1].hop_index));
    }
  }

  // Decode helper: map hop node back to (edge, hop index).
  std::vector<EdgeId> hop_edge(
      static_cast<std::size_t>(idx.total - idx.num_tasks));
  std::vector<int> hop_k(static_cast<std::size_t>(idx.total - idx.num_tasks));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& route = s.route_of(e);
    for (int k = 0; k < static_cast<int>(route.size()); ++k) {
      const auto off =
          static_cast<std::size_t>(idx.hop_node(e, k) - idx.num_tasks);
      hop_edge[off] = e;
      hop_k[off] = k;
    }
  }

  // Kahn longest-path sweep.
  std::vector<Time> start(static_cast<std::size_t>(idx.total), 0);
  std::vector<Time> finish(static_cast<std::size_t>(idx.total), 0);
  std::queue<int> ready;
  int active_count = 0;
  for (int v = 0; v < idx.total; ++v) {
    if (!active[static_cast<std::size_t>(v)]) continue;
    ++active_count;
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }

  int processed = 0;
  while (!ready.empty()) {
    const int v = ready.front();
    ready.pop();
    ++processed;
    const auto vi = static_cast<std::size_t>(v);
    if (v < idx.num_tasks) {
      const auto t = static_cast<TaskId>(v);
      finish[vi] = start[vi] + costs.exec_cost(t, s.proc_of(t));
    } else {
      const std::size_t off = vi - static_cast<std::size_t>(idx.num_tasks);
      const EdgeId e = hop_edge[off];
      const Hop& h = s.route_of(e)[static_cast<std::size_t>(hop_k[off])];
      finish[vi] = start[vi] + costs.comm_cost(e, h.link);
    }
    for (const int w : succ[vi]) {
      const auto wi = static_cast<std::size_t>(w);
      start[wi] = std::max(start[wi], finish[vi]);
      if (--indegree[wi] == 0) ready.push(w);
    }
  }
  if (processed != active_count) return false;  // order cycle

  // Write the new times back.
  Time mk = 0;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_placed(t)) continue;
    const auto vi = static_cast<std::size_t>(idx.task_node(t));
    s.set_task_times(t, start[vi], finish[vi]);
    mk = std::max(mk, finish[vi]);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& route = s.route_of(e);
    for (int k = 0; k < static_cast<int>(route.size()); ++k) {
      const auto vi = static_cast<std::size_t>(idx.hop_node(e, k));
      s.set_hop_times(e, k, start[vi], finish[vi]);
    }
  }
  s.normalize_orders();
  if (makespan != nullptr) *makespan = mk;
  return true;
}

Time retime(Schedule& s, const net::HeterogeneousCostModel& costs) {
  Time mk = 0;
  const bool ok = try_retime(s, costs, &mk);
  BSA_ASSERT(ok, "schedule order constraints contain a cycle");
  return mk;
}

Time replay_retime(Schedule& s, const net::HeterogeneousCostModel& costs,
                   bool insertion_slots) {
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  BSA_REQUIRE(s.all_placed(), "replay requires a complete placement");

  // Snapshot the assignment and priorities.
  const auto n = static_cast<std::size_t>(g.num_tasks());
  std::vector<ProcId> proc(n);
  std::vector<Time> task_prio(n);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    proc[static_cast<std::size_t>(t)] = s.proc_of(t);
    task_prio[static_cast<std::size_t>(t)] = s.start_of(t);
  }
  std::vector<std::vector<LinkId>> route_links(
      static_cast<std::size_t>(g.num_edges()));
  std::vector<std::vector<Time>> hop_prio(
      static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const Hop& h : s.route_of(e)) {
      route_links[static_cast<std::size_t>(e)].push_back(h.link);
      hop_prio[static_cast<std::size_t>(e)].push_back(h.start);
    }
  }

  Schedule fresh(g, topo);

  // Replay state (hops booked so far are fresh.route_of(e)).
  std::vector<Time> task_finish(n, kUnsetTime);
  // Item key: (priority, kind 0=task 1=hop, id, hop index).
  using Key = std::tuple<Time, int, std::int64_t, int>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ready;

  std::vector<int> task_waits(n, 0);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    task_waits[static_cast<std::size_t>(t)] = g.in_degree(t);
    if (g.in_degree(t) == 0) {
      ready.emplace(task_prio[static_cast<std::size_t>(t)], 0, t, 0);
    }
  }

  auto arrival_known = [&](EdgeId e) {
    // Fires once the message's arrival time at its destination processor
    // is determined; enables the destination task.
    const TaskId dst = g.edge_dst(e);
    if (--task_waits[static_cast<std::size_t>(dst)] == 0) {
      ready.emplace(task_prio[static_cast<std::size_t>(dst)], 0, dst, 0);
    }
  };

  int executed = 0;
  while (!ready.empty()) {
    const auto [prio, kind, id, k] = ready.top();
    ready.pop();
    ++executed;
    if (kind == 0) {
      const auto t = static_cast<TaskId>(id);
      const auto ti = static_cast<std::size_t>(t);
      Time drt = 0;
      for (const EdgeId e : g.in_edges(t)) {
        const auto& hops = fresh.route_of(e);
        const Time arr =
            hops.empty()
                ? task_finish[static_cast<std::size_t>(g.edge_src(e))]
                : hops.back().finish;
        BSA_ASSERT(arr != kUnsetTime, "replay ordering bug");
        drt = std::max(drt, arr);
      }
      const ProcId p = proc[ti];
      const Time dur = costs.exec_cost(t, p);
      const Time st = task_start(fresh, p, drt, dur, insertion_slots);
      fresh.place_task(t, p, st, st + dur);
      task_finish[ti] = st + dur;
      // Enable outgoing messages.
      for (const EdgeId e : g.out_edges(t)) {
        if (route_links[static_cast<std::size_t>(e)].empty()) {
          arrival_known(e);
        } else {
          ready.emplace(hop_prio[static_cast<std::size_t>(e)][0], 1, e, 0);
        }
      }
    } else {
      const auto e = static_cast<EdgeId>(id);
      const auto ei = static_cast<std::size_t>(e);
      const LinkId l = route_links[ei][static_cast<std::size_t>(k)];
      BSA_ASSERT(fresh.route_of(e).size() == static_cast<std::size_t>(k),
                 "replay ordering bug (hop)");
      // Booked immediately so later searches see it.
      book_route(fresh, costs, e, {&l, 1}, fresh.arrival_of(e),
                 insertion_slots);
      if (static_cast<std::size_t>(k + 1) < route_links[ei].size()) {
        ready.emplace(hop_prio[ei][static_cast<std::size_t>(k + 1)], 1, e,
                      k + 1);
      } else {
        arrival_known(e);
      }
    }
  }
  std::size_t expected = n;
  for (const auto& links : route_links) expected += links.size();
  BSA_ASSERT(static_cast<std::size_t>(executed) == expected,
             "replay executed " << executed << " of " << expected
                                << " items");
  s = std::move(fresh);
  return s.makespan();
}

}  // namespace bsa::sched
