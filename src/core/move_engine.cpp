#include "core/move_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "sched/link_probe.hpp"

namespace bsa::core {

constinit thread_local MoveEngine::Observer* MoveEngine::observer_ = nullptr;

void crossing_in_edges_into(const sched::Schedule& s, TaskId t, ProcId p,
                            std::vector<EdgeId>& out) {
  const auto& g = s.task_graph();
  out.clear();
  for (const EdgeId e : g.in_edges(t)) {
    if (s.proc_of(g.edge_src(e)) != p) out.push_back(e);
  }
  std::sort(out.begin(), out.end(), [&](EdgeId a, EdgeId b) {
    const Time fa = s.finish_of(g.edge_src(a));
    const Time fb = s.finish_of(g.edge_src(b));
    if (fa != fb) return fa < fb;
    return a < b;
  });
}

MoveEngine::MoveEngine(sched::Schedule& s,
                       const net::HeterogeneousCostModel& costs,
                       bool insertion_slots, const obs::Hooks& hooks)
    : s_(s),
      costs_(costs),
      hooks_(hooks),
      replayer_(s.task_graph(), s.topology(), costs, insertion_slots) {}

MoveEngine::MoveEngine(sched::Schedule& s,
                       const net::HeterogeneousCostModel& costs)
    : MoveEngine(s, costs, true, obs::Hooks{}) {
  BSA_REQUIRE(s_.all_placed(), "MoveEngine requires a complete schedule");
  table_.emplace(s_.topology());
  ctx_.emplace(s_, costs_);
  if (!ctx_->retime_full(nullptr)) {
    ++stats_.replay_fallbacks;
    (void)replayer_.measure(s_);
    swap_replay_in();
  }
}

void MoveEngine::begin(TaskId t, bool journal) {
  // Built at the first move: the schedule is a re-timing fixpoint
  // between moves, which construction requires.
  if (!ctx_.has_value()) ctx_.emplace(s_, costs_);
  task_ = t;
  journaled_ = journal;
  replayed_ = false;
  if (journal) s_.begin_transaction(txn_);
  ctx_->begin_migration(t);
  notify(Stage::kBegun);
}

Time MoveEngine::settle() {
  notify(Stage::kSettling);
  obs::Span retime_span(hooks_.tracer, "retime", "bsa", hooks_.trace_tid);
  const bool retimed = ctx_->retime_migration(task_, nullptr);
  retime_span.close();
  if (journaled_) {
    const auto depth = static_cast<std::int64_t>(txn_.size());
    stats_.txn_journal_records += depth;
    stats_.txn_journal_hwm = std::max(stats_.txn_journal_hwm, depth);
  }
  replayed_ = !retimed;
  Time len = 0;
  if (retimed) {
    len = s_.makespan();
  } else {
    // A failed delta writes no times, so the schedule still holds exactly
    // the move's mutations: replay them in the workspace. A journaled
    // move is then undone (the context with it) whatever the caller
    // decides; keep swaps the replay in.
    obs::Span span(hooks_.tracer, "replay", "bsa", hooks_.trace_tid);
    ++stats_.replay_fallbacks;
    len = replayer_.measure(s_);
    if (journaled_) {
      s_.rollback_transaction();
      ctx_->undo_migration(task_);
    }
  }
  notify(Stage::kSettled);
  return len;
}

void MoveEngine::keep() {
  if (replayed_) {
    obs::Span span(hooks_.tracer, "replay", "bsa", hooks_.trace_tid);
    swap_replay_in();
  } else if (journaled_) {
    s_.commit_transaction();
  }
  notify(Stage::kKept);
}

void MoveEngine::discard() {
  BSA_REQUIRE(journaled_, "only a journaled move can be discarded");
  if (!replayed_) {  // settle already undid a replayed move
    obs::Span span(hooks_.tracer, "rollback", "bsa", hooks_.trace_tid);
    s_.rollback_transaction();
    ctx_->undo_migration(task_);
  }
  notify(Stage::kDiscarded);
}

void MoveEngine::swap_replay_in() {
  replayer_.swap_into(s_);
  ctx_->adopt_schedule();
}

/// The engine's own move of `t` to `p` (no re-timing). Outgoing messages
/// re-route from the task's actual new finish rather than BSA's
/// pre-retime estimate, so this is not a mirror of BSA's static commit.
/// Deterministic in the pre-move schedule state.
void MoveEngine::apply_move_mutations(TaskId t, ProcId p) {
  const auto& g = s_.task_graph();
  s_.unplace_task(t);
  for (const EdgeId e : g.in_edges(t)) s_.clear_route(e);
  for (const EdgeId e : g.out_edges(t)) s_.clear_route(e);

  Time drt = 0;
  for (const EdgeId e : g.in_edges(t)) {
    if (s_.proc_of(g.edge_src(e)) == p) {
      drt = std::max(drt, s_.finish_of(g.edge_src(e)));
    }
  }
  crossing_in_edges_into(s_, t, p, order_);
  for (const EdgeId e : order_) {
    const TaskId src = g.edge_src(e);
    table_->route_into(s_.proc_of(src), p, route_);
    drt = std::max(drt, sched::book_route(s_, costs_, e, route_,
                                          s_.finish_of(src), true));
  }

  const Time dur = costs_.exec_cost(t, p);
  const Time st = sched::task_start(s_, p, drt, dur, true);
  s_.place_task(t, p, st, st + dur);

  for (const EdgeId e : g.out_edges(t)) {
    const ProcId pd = s_.proc_of(g.edge_dst(e));
    if (pd == p) continue;
    table_->route_into(p, pd, route_);
    sched::book_route(s_, costs_, e, route_, st + dur, true);
  }
}

Time MoveEngine::propose(TaskId t, ProcId p) {
  begin(t, true);
  apply_move_mutations(t, p);
  return settle();
}

Time MoveEngine::evaluate(TaskId t, ProcId p) {
  const Time len = propose(t, p);
  discard();
  return len;
}

void MoveEngine::apply(TaskId t, ProcId p) {
  begin(t, false);
  apply_move_mutations(t, p);
  (void)settle();
  keep();
}

MoveEngine::Stats MoveEngine::stats() const {
  Stats out = stats_;
  if (ctx_.has_value()) out.retime = ctx_->stats();
  return out;
}

std::string MoveEngine::check_consistency() const {
  return ctx_.has_value() ? ctx_->check_consistency() : std::string{};
}

}  // namespace bsa::core
