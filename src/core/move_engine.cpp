#include "core/move_engine.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "sched/link_probe.hpp"

namespace bsa::core {

MoveEngine::MoveEngine(sched::Schedule& s,
                       const net::HeterogeneousCostModel& costs)
    : s_(s),
      costs_(costs),
      table_(s.topology()),
      ctx_(s, costs),
      replayer_(s.task_graph(), s.topology(), costs) {
  BSA_REQUIRE(s_.all_placed(), "MoveEngine requires a complete schedule");
  // Pull the input to its earliest-time fixpoint so the context's
  // incremental updates start from consistent ground.
  if (!ctx_.retime_full(nullptr)) replay_in_place();
}

void MoveEngine::replay_in_place() {
  ++stats_.replay_fallbacks;
  (void)replayer_.measure(s_);
  replayer_.swap_into(s_);
  ctx_.adopt_schedule();
}

/// Schedule mutations of moving `t` to `p` on the live schedule (no
/// re-timing): clear its incident routes, re-route crossing messages
/// along static shortest paths (deterministic source-finish order) and
/// place `t` at its earliest slot. Outgoing messages re-route from the
/// task's actual new finish rather than BSA's pre-retime estimate, so
/// this defines the engine's own move semantics, not a mirror of BSA's
/// static commit. Deterministic in the pre-move schedule state.
void MoveEngine::apply_move_mutations(TaskId t, ProcId p) {
  const auto& g = s_.task_graph();
  ctx_.begin_migration(t);
  s_.unplace_task(t);
  for (const EdgeId e : g.in_edges(t)) s_.clear_route(e);
  for (const EdgeId e : g.out_edges(t)) s_.clear_route(e);

  std::vector<EdgeId> incoming;
  for (const EdgeId e : g.in_edges(t)) {
    if (s_.proc_of(g.edge_src(e)) != p) incoming.push_back(e);
  }
  std::sort(incoming.begin(), incoming.end(), [&](EdgeId a, EdgeId b) {
    const Time fa = s_.finish_of(g.edge_src(a));
    const Time fb = s_.finish_of(g.edge_src(b));
    if (!time_eq(fa, fb)) return fa < fb;
    return a < b;
  });
  Time drt = 0;
  for (const EdgeId e : g.in_edges(t)) {
    if (s_.proc_of(g.edge_src(e)) == p) {
      drt = std::max(drt, s_.finish_of(g.edge_src(e)));
    }
  }
  for (const EdgeId e : incoming) {
    const TaskId src = g.edge_src(e);
    drt = std::max(drt, sched::book_route(s_, costs_, e,
                                          table_.route(s_.proc_of(src), p),
                                          s_.finish_of(src), true));
  }

  const Time dur = costs_.exec_cost(t, p);
  const Time st = sched::task_start(s_, p, drt, dur, true);
  s_.place_task(t, p, st, st + dur);

  for (const EdgeId e : g.out_edges(t)) {
    const ProcId pd = s_.proc_of(g.edge_dst(e));
    if (pd == p) continue;
    sched::book_route(s_, costs_, e, table_.route(p, pd), st + dur, true);
  }
}

Time MoveEngine::evaluate(TaskId t, ProcId p) {
  ++stats_.evaluated;
  s_.begin_transaction(txn_);
  apply_move_mutations(t, p);
  Time len = 0;
  if (ctx_.retime_migration(t, nullptr)) {
    len = s_.makespan();
  } else {
    // Re-timing cycle: a failed delta writes no times, so the schedule
    // still holds exactly the move's mutations; replay them in the
    // workspace, leaving the schedule for the rollback below.
    ++stats_.replay_fallbacks;
    len = replayer_.measure(s_);
  }
  s_.rollback_transaction();
  ctx_.undo_migration(t);
  return len;
}

void MoveEngine::apply(TaskId t, ProcId p) {
  ++stats_.applied;
  apply_move_mutations(t, p);
  if (!ctx_.retime_migration(t, nullptr)) replay_in_place();
}

}  // namespace bsa::core
