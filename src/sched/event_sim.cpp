#include "sched/event_sim.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bsa::sched {

SimulationResult simulate_execution(const Schedule& s,
                                    const net::HeterogeneousCostModel& costs) {
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  SimulationResult result;
  result.task_start.assign(static_cast<std::size_t>(g.num_tasks()), kUnsetTime);
  result.task_finish.assign(static_cast<std::size_t>(g.num_tasks()),
                            kUnsetTime);
  BSA_REQUIRE(s.all_placed(), "simulation requires a complete schedule");

  // Per-edge hop completion times (kUnsetTime = not yet transmitted).
  std::vector<std::vector<Time>> hop_finish(
      static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    hop_finish[static_cast<std::size_t>(e)].assign(s.route_of(e).size(),
                                                   kUnsetTime);
  }

  std::vector<std::size_t> proc_head(
      static_cast<std::size_t>(topo.num_processors()), 0);
  std::vector<std::size_t> link_head(
      static_cast<std::size_t>(topo.num_links()), 0);

  // Arrival time of message e at the destination task's processor, or
  // kUnsetTime when not yet arrived.
  auto message_arrival = [&](EdgeId e) -> Time {
    const auto& route = s.route_of(e);
    if (route.empty()) {
      return result.task_finish[static_cast<std::size_t>(g.edge_src(e))];
    }
    return hop_finish[static_cast<std::size_t>(e)].back();
  };

  int remaining_tasks = g.num_tasks();
  std::size_t remaining_hops = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    remaining_hops += s.route_of(e).size();
  }

  // Fixed-point sweep: repeatedly try to start head-of-queue items whose
  // inputs are available. Each outer iteration executes at least one item
  // or reports deadlock, so the loop terminates.
  bool progress = true;
  while ((remaining_tasks > 0 || remaining_hops > 0) && progress) {
    progress = false;
    // Tasks.
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      const auto& order = s.tasks_on(p);
      auto& head = proc_head[static_cast<std::size_t>(p)];
      while (head < order.size()) {
        const TaskId t = order[head];
        Time drt = 0;
        bool ok = true;
        for (const EdgeId e : g.in_edges(t)) {
          const Time arr = message_arrival(e);
          if (arr == kUnsetTime) {
            ok = false;
            break;
          }
          drt = std::max(drt, arr);
        }
        if (!ok) break;
        const Time prev_done =
            head == 0
                ? Time{0}
                : result.task_finish[static_cast<std::size_t>(order[head - 1])];
        const Time st = std::max(drt, prev_done);
        result.task_start[static_cast<std::size_t>(t)] = st;
        result.task_finish[static_cast<std::size_t>(t)] =
            st + costs.exec_cost(t, p);
        ++head;
        --remaining_tasks;
        progress = true;
      }
    }
    // Message hops.
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      const auto& queue = s.bookings_on(l);
      auto& head = link_head[static_cast<std::size_t>(l)];
      while (head < queue.size()) {
        const LinkBooking& b = queue[head];
        // Payload availability: previous hop of the same route, or the
        // source task's completion for the first hop.
        Time avail = kUnsetTime;
        if (b.hop_index == 0) {
          avail = result.task_finish[static_cast<std::size_t>(
              g.edge_src(b.edge))];
        } else {
          avail = hop_finish[static_cast<std::size_t>(b.edge)]
                            [static_cast<std::size_t>(b.hop_index - 1)];
        }
        if (avail == kUnsetTime) break;
        const Time link_free =
            head == 0 ? Time{0}
                      : [&] {
                          const LinkBooking& prev = queue[head - 1];
                          return hop_finish[static_cast<std::size_t>(prev.edge)]
                                           [static_cast<std::size_t>(
                                               prev.hop_index)];
                        }();
        const Time st = std::max(avail, link_free);
        hop_finish[static_cast<std::size_t>(b.edge)]
                  [static_cast<std::size_t>(b.hop_index)] =
                      st + costs.comm_cost(b.edge, l);
        ++head;
        --remaining_hops;
        progress = true;
      }
    }
  }

  if (remaining_tasks > 0 || remaining_hops > 0) {
    result.completed = false;
    result.error = "deadlock: " + std::to_string(remaining_tasks) +
                   " tasks and " + std::to_string(remaining_hops) +
                   " hops cannot execute under the given orders";
    return result;
  }
  result.completed = true;
  for (const Time ft : result.task_finish) {
    result.makespan = std::max(result.makespan, ft);
  }
  return result;
}

bool simulation_matches(const Schedule& s, const SimulationResult& result) {
  if (!result.completed) return false;
  const auto& g = s.task_graph();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (result.task_start[ti] != s.start_of(t)) return false;
    if (result.task_finish[ti] != s.finish_of(t)) return false;
  }
  return true;
}

}  // namespace bsa::sched
