#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <ios>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/bsa.hpp"
#include "core/move_engine.hpp"
#include "network/cost_model.hpp"
#include "sched/link_probe.hpp"
#include "sched/retime.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"

/// \file bsa_oracle.hpp
/// Shared helpers for the move-engine equivalence tests
/// (retime_context_test, schedule_txn_test) and the re-timing and replay
/// tests:
///
///  * try_retime — the full-rebuild order-preserving re-timer, the
///    reference of the incremental sched::RetimeContext;
///  * diff_schedules — bit-exact schedule comparison, including the parts
///    schedule_to_text omits (processor and link orders);
///  * schedule_digest — a 64-bit fingerprint of the same state, so a
///    scenario's result can be pinned as a literal;
///  * MoveOracle — a core::MoveEngine::Observer that checks every move of
///    the engines on its thread (BSA's migrations, SA's and refine's
///    moves) against try_retime and the pre-move schedule;
///  * expect_bsa_oracle_run — run BSA under a MoveOracle, require the run
///    byte-identical to one without it, and compare it with a pinned
///    digest / migration / rejection triple. The pins were taken from the
///    build that still carried the full-rebuild, snapshot-rollback and
///    per-call-allocating reference engines as BSA options, where all
///    engine combinations agreed. Each pin also holds the run's
///    replay-fallback count, the number of times the move engine took its
///    replay branch;
///  * reference_replay — the replay as it was before sched::Replayer: a
///    freshly allocated schedule, per-edge route vectors and a
///    std::priority_queue, move-assigned over the input. The workspace
///    must reproduce it bit for bit;
///  * replay_retime — one replay through a temporary sched::Replayer,
///    kept in place.

namespace bsa::core {
/// Installs a MoveEngine::Observer on this thread and reads the state of
/// the move in progress (declared friend in move_engine.hpp).
struct MoveEngineTestPeer {
  /// Install `observer` (nullptr: none); returns the previous one.
  static MoveEngine::Observer* install(MoveEngine::Observer* observer) {
    MoveEngine::Observer* const previous = MoveEngine::observer_;
    MoveEngine::observer_ = observer;
    return previous;
  }
  static const sched::Schedule& schedule(const MoveEngine& e) {
    return e.s_;
  }
  static const net::HeterogeneousCostModel& costs(const MoveEngine& e) {
    return e.costs_;
  }
  static TaskId task(const MoveEngine& e) { return e.task_; }
  static bool journaled(const MoveEngine& e) { return e.journaled_; }
};
}  // namespace bsa::core

namespace bsa::testing {

/// Order-preserving earliest-time recomputation by full rebuild: one
/// node per task and per route hop, edges for precedence, route
/// chaining, processor order and link transmission order, and a Kahn
/// longest-path sweep. Returns true and updates `s` (makespan in
/// *makespan when non-null); returns false — leaving `s` untouched — when
/// the order constraints contain a cycle. Partial schedules are allowed.
inline bool try_retime(sched::Schedule& s,
                       const net::HeterogeneousCostModel& costs,
                       Time* makespan = nullptr) {
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  // Nodes: tasks first, then the hops of each edge in one block.
  const int num_tasks = g.num_tasks();
  std::vector<int> hop_base(static_cast<std::size_t>(g.num_edges()));
  int total = num_tasks;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    hop_base[static_cast<std::size_t>(e)] = total;
    total += static_cast<int>(s.route_of(e).size());
  }
  const auto hop_node = [&](EdgeId e, int k) {
    return hop_base[static_cast<std::size_t>(e)] + k;
  };
  const auto n = static_cast<std::size_t>(total);

  std::vector<std::vector<int>> succ(n);
  std::vector<int> indegree(n, 0);
  std::vector<char> active(n, 0);
  const auto add_dep = [&](int from, int to) {
    succ[static_cast<std::size_t>(from)].push_back(to);
    ++indegree[static_cast<std::size_t>(to)];
  };
  // Decode: the (edge, hop index) of each hop node.
  std::vector<std::pair<EdgeId, int>> hop_of(n);
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (s.is_placed(t)) active[static_cast<std::size_t>(t)] = 1;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& route = s.route_of(e);
    for (int k = 0; k < static_cast<int>(route.size()); ++k) {
      active[static_cast<std::size_t>(hop_node(e, k))] = 1;
      hop_of[static_cast<std::size_t>(hop_node(e, k))] = {e, k};
    }
  }

  // Precedence and route-chaining dependencies.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const TaskId src = g.edge_src(e);
    const TaskId dst = g.edge_dst(e);
    const auto hops = static_cast<int>(s.route_of(e).size());
    if (hops == 0) {
      if (s.is_placed(src) && s.is_placed(dst)) add_dep(src, dst);
      continue;
    }
    BSA_ASSERT(s.is_placed(src), "routed message with unplaced source");
    add_dep(src, hop_node(e, 0));
    for (int k = 0; k + 1 < hops; ++k) {
      add_dep(hop_node(e, k), hop_node(e, k + 1));
    }
    if (s.is_placed(dst)) add_dep(hop_node(e, hops - 1), dst);
  }
  // Processor order chains.
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    const auto& order = s.tasks_on(p);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      add_dep(order[i], order[i + 1]);
    }
  }
  // Link transmission-order chains.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const auto& bookings = s.bookings_on(l);
    for (std::size_t i = 0; i + 1 < bookings.size(); ++i) {
      add_dep(hop_node(bookings[i].edge, bookings[i].hop_index),
              hop_node(bookings[i + 1].edge, bookings[i + 1].hop_index));
    }
  }

  // Kahn longest-path sweep.
  std::vector<Time> start(n, 0);
  std::vector<Time> finish(n, 0);
  std::queue<int> ready;
  int active_count = 0;
  for (int v = 0; v < total; ++v) {
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
    if (v < num_tasks) {
      finish[vi] = start[vi] + costs.exec_cost(v, s.proc_of(v));
    } else {
      const auto [e, k] = hop_of[vi];
      const sched::Hop& h = s.route_of(e)[static_cast<std::size_t>(k)];
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
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (!s.is_placed(t)) continue;
    const auto vi = static_cast<std::size_t>(t);
    s.set_task_times(t, start[vi], finish[vi]);
    mk = std::max(mk, finish[vi]);
  }
  // Hops by booking position: the lists are mid-rewrite, so a search by
  // times would not find them.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const auto& bookings = s.bookings_on(l);
    for (std::size_t i = 0; i < bookings.size(); ++i) {
      const sched::LinkBooking& b = bookings[i];
      const auto vi = static_cast<std::size_t>(hop_node(b.edge, b.hop_index));
      s.set_hop_times(b.edge, b.hop_index, start[vi], finish[vi], i);
    }
  }
  // Orders need no re-sorting: the processor- and link-order chain edges
  // give every item a start at or after its predecessor's finish.
  if (makespan != nullptr) *makespan = mk;
  return true;
}

/// The former sched::replay_retime, kept verbatim as the oracle of
/// sched::Replayer: rebuild `s` by replaying its assignment through list
/// scheduling, items in the order of their previous start times (ties:
/// tasks before hops, then ids). Returns the makespan.
inline Time reference_replay(sched::Schedule& s,
                             const net::HeterogeneousCostModel& costs,
                             bool insertion_slots) {
  const auto& g = s.task_graph();
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
    for (const sched::Hop& h : s.route_of(e)) {
      route_links[static_cast<std::size_t>(e)].push_back(h.link);
      hop_prio[static_cast<std::size_t>(e)].push_back(h.start);
    }
  }
  sched::Schedule fresh(g, s.topology());
  std::vector<Time> task_finish(n, kUnsetTime);
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
    const TaskId dst = g.edge_dst(e);
    if (--task_waits[static_cast<std::size_t>(dst)] == 0) {
      ready.emplace(task_prio[static_cast<std::size_t>(dst)], 0, dst, 0);
    }
  };
  while (!ready.empty()) {
    const auto [prio, kind, id, k] = ready.top();
    ready.pop();
    if (kind == 0) {
      const auto t = static_cast<TaskId>(id);
      Time drt = 0;
      for (const EdgeId e : g.in_edges(t)) {
        const auto& hops = fresh.route_of(e);
        drt = std::max(drt, hops.empty() ? task_finish[static_cast<std::size_t>(
                                               g.edge_src(e))]
                                         : hops.back().finish);
      }
      const ProcId p = proc[static_cast<std::size_t>(t)];
      const Time dur = costs.exec_cost(t, p);
      const Time st = sched::task_start(fresh, p, drt, dur, insertion_slots);
      fresh.place_task(t, p, st, st + dur);
      task_finish[static_cast<std::size_t>(t)] = st + dur;
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
      sched::book_route(fresh, costs, e, {&l, 1}, fresh.arrival_of(e),
                        insertion_slots);
      if (static_cast<std::size_t>(k + 1) < route_links[ei].size()) {
        ready.emplace(hop_prio[ei][static_cast<std::size_t>(k + 1)], 1, e,
                      k + 1);
      } else {
        arrival_known(e);
      }
    }
  }
  s = std::move(fresh);
  return s.makespan();
}

/// Replay `s` through a temporary sched::Replayer and keep the result:
/// all times (and resource orders) of `s` are rebuilt in place. Returns
/// the makespan. Requires a complete placement.
inline Time replay_retime(sched::Schedule& s,
                          const net::HeterogeneousCostModel& costs,
                          bool insertion_slots = true) {
  sched::Replayer replayer(s.task_graph(), s.topology(), costs,
                           insertion_slots);
  const Time makespan = replayer.measure(s);
  replayer.swap_into(s);
  return makespan;
}

/// Bit-exact schedule comparison: placements, per-processor orders,
/// routes (hop links and times) and link-booking orders. Returns a
/// description of the first difference, empty when identical.
inline std::string diff_schedules(const sched::Schedule& a,
                                  const sched::Schedule& b) {
  std::ostringstream os;
  const auto& g = a.task_graph();
  const auto& topo = a.topology();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (a.is_placed(t) != b.is_placed(t)) {
      os << "task " << t << " placement presence differs";
      return os.str();
    }
    if (!a.is_placed(t)) continue;
    if (a.proc_of(t) != b.proc_of(t) || a.start_of(t) != b.start_of(t) ||
        a.finish_of(t) != b.finish_of(t)) {
      os << "task " << t << ": (" << a.proc_of(t) << "," << a.start_of(t)
         << "," << a.finish_of(t) << ") vs (" << b.proc_of(t) << ","
         << b.start_of(t) << "," << b.finish_of(t) << ")";
      return os.str();
    }
  }
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    if (a.tasks_on(p) != b.tasks_on(p)) {
      os << "processor " << p << " order differs";
      return os.str();
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ra = a.route_of(e);
    const auto& rb = b.route_of(e);
    if (ra.size() != rb.size()) {
      os << "edge " << e << " route length " << ra.size() << " vs "
         << rb.size();
      return os.str();
    }
    for (std::size_t k = 0; k < ra.size(); ++k) {
      if (ra[k].link != rb[k].link || ra[k].start != rb[k].start ||
          ra[k].finish != rb[k].finish) {
        os << "edge " << e << " hop " << k << " differs";
        return os.str();
      }
    }
  }
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const auto& ba = a.bookings_on(l);
    const auto& bb = b.bookings_on(l);
    if (ba.size() != bb.size()) {
      os << "link " << l << " booking count differs";
      return os.str();
    }
    for (std::size_t i = 0; i < ba.size(); ++i) {
      if (ba[i].edge != bb[i].edge || ba[i].hop_index != bb[i].hop_index ||
          ba[i].start != bb[i].start || ba[i].finish != bb[i].finish) {
        os << "link " << l << " booking " << i << " differs";
        return os.str();
      }
    }
  }
  return {};
}

/// FNV-1a over everything diff_schedules compares (times by bit pattern).
inline std::uint64_t schedule_digest(const sched::Schedule& s) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const auto mix_int = [&mix](std::int64_t v) {
    mix(static_cast<std::uint64_t>(v));
  };
  const auto mix_time = [&mix](Time v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    mix_int(s.is_placed(t) ? s.proc_of(t) : -1);
    if (!s.is_placed(t)) continue;
    mix_time(s.start_of(t));
    mix_time(s.finish_of(t));
  }
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    mix_int(static_cast<std::int64_t>(s.tasks_on(p).size()));
    for (const TaskId t : s.tasks_on(p)) mix_int(t);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mix_int(static_cast<std::int64_t>(s.route_of(e).size()));
    for (const sched::Hop& h : s.route_of(e)) {
      mix_int(h.link);
      mix_time(h.start);
      mix_time(h.finish);
    }
  }
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    mix_int(static_cast<std::int64_t>(s.bookings_on(l).size()));
    for (const sched::LinkBooking& b : s.bookings_on(l)) {
      mix_int(b.edge);
      mix_int(b.hop_index);
      mix_time(b.start);
      mix_time(b.finish);
    }
  }
  return hash;
}

/// Checks every move of the core::MoveEngines on this thread while it is
/// alive (installed through MoveEngineTestPeer) against the references:
///
///  * settle: the incremental re-timing reaches try_retime's verdict on a
///    copy of the mutated schedule and, when it re-times, that copy's
///    schedule bit for bit;
///  * a journaled move that is discarded, or settled by a replay (which
///    undoes it at once), restores the pre-move schedule bit for bit and
///    leaves the re-timing context consistent with it;
///  * keep leaves a validate()-clean schedule.
///
/// It only reads. failure() is the first failed check (empty when all
/// held); moves() counts the settled moves, replayed_moves() those
/// settled by a replay.
class MoveOracle final : public core::MoveEngine::Observer {
 public:
  MoveOracle() : previous_(core::MoveEngineTestPeer::install(this)) {}
  ~MoveOracle() override { core::MoveEngineTestPeer::install(previous_); }
  MoveOracle(const MoveOracle&) = delete;
  MoveOracle& operator=(const MoveOracle&) = delete;

  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] std::int64_t moves() const { return moves_; }
  [[nodiscard]] std::int64_t replayed_moves() const { return replayed_; }

  void on(core::MoveEngine::Stage stage,
          const core::MoveEngine& engine) override {
    using Peer = core::MoveEngineTestPeer;
    using Stage = core::MoveEngine::Stage;
    const sched::Schedule& s = Peer::schedule(engine);
    const auto& costs = Peer::costs(engine);
    const TaskId t = Peer::task(engine);
    switch (stage) {
      case Stage::kBegun:
        if (Peer::journaled(engine)) before_ = s;
        break;
      case Stage::kSettling:
        mutated_ = s;
        retimed_ = try_retime(*mutated_, costs);
        break;
      case Stage::kSettled:
        ++moves_;
        replayed_ += engine.replayed() ? 1 : 0;
        if (engine.replayed() == retimed_) {
          record(t, retimed_ ? "the engine replays where the full rebuild "
                               "re-times"
                             : "the engine re-times where the full rebuild "
                               "finds a cycle");
        } else if (retimed_) {
          check(t, "re-timing differs from the full rebuild",
                diff_schedules(s, *mutated_));
        } else if (Peer::journaled(engine)) {
          expect_restored(engine, s, t);
        }
        break;
      case Stage::kKept:
        if (const auto report = sched::validate(s, costs); !report.ok()) {
          record(t, "kept schedule invalid: " + report.to_string());
        }
        break;
      case Stage::kDiscarded:
        expect_restored(engine, s, t);
        break;
    }
  }

 private:
  /// Keep the first failure: `what` went wrong in the move of `t`.
  void record(TaskId t, const std::string& what) {
    if (!failure_.empty()) return;
    failure_ = "move " + std::to_string(moves_) + " of task " +
               std::to_string(t) + ": " + what;
  }
  /// Record `what` with `problem` unless `problem` is empty.
  void check(TaskId t, const char* what, const std::string& problem) {
    if (!problem.empty()) record(t, what + (": " + problem));
  }
  void expect_restored(const core::MoveEngine& engine,
                       const sched::Schedule& s, TaskId t) {
    check(t, "undoing the move did not restore the schedule",
          diff_schedules(s, *before_));
    check(t, "re-timing context inconsistent after the undo",
          engine.check_consistency());
  }

  core::MoveEngine::Observer* previous_;
  std::optional<sched::Schedule> before_;   ///< the journaled move's start
  std::optional<sched::Schedule> mutated_;  ///< re-timed by try_retime
  bool retimed_ = false;
  std::int64_t moves_ = 0;
  std::int64_t replayed_ = 0;
  std::string failure_;
};

/// A scenario's pinned result.
struct OraclePin {
  std::uint64_t digest = 0;
  std::size_t migrations = 0;
  std::int64_t rejections = 0;
  /// Migrations the engine settled by a replay (order-cycle fallbacks).
  std::int64_t replay_fallbacks = 0;
};

/// Run BSA under a MoveOracle and without one, require every move to
/// pass the oracle, identical schedules and a valid result, and compare
/// with `pins[index]`. A missing pin fails and prints the row to add.
/// Returns the run's actual result.
inline OraclePin expect_bsa_oracle_run(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& cm, const core::BsaOptions& opt,
    const std::string& label, const std::vector<OraclePin>& pins,
    std::size_t index) {
  std::int64_t moves = 0;
  const core::BsaResult checked = [&] {
    const MoveOracle oracle;
    core::BsaResult result = core::schedule_bsa(g, topo, cm, opt);
    EXPECT_EQ(oracle.failure(), "") << label;
    moves = oracle.moves();
    return result;
  }();
  const core::BsaResult plain = core::schedule_bsa(g, topo, cm, opt);
  const std::string diff = diff_schedules(checked.schedule, plain.schedule);
  EXPECT_TRUE(diff.empty()) << label << ": oracle changed the run: " << diff;
  EXPECT_TRUE(sched::validate(plain.schedule, cm).ok()) << label;
  // Every migration BSA commits or rejects is one engine move.
  EXPECT_EQ(moves, static_cast<std::int64_t>(plain.trace.migrations.size()) +
                       plain.trace.rejected_migrations)
      << label;

  const OraclePin actual{schedule_digest(plain.schedule),
                         plain.trace.migrations.size(),
                         plain.trace.rejected_migrations,
                         plain.trace.engine.replay_fallbacks};
  if (index >= pins.size()) {
    ADD_FAILURE() << label << ": unpinned case " << index << ", pin: {0x"
                  << std::hex << actual.digest << std::dec << "ull, "
                  << actual.migrations << ", " << actual.rejections << ", "
                  << actual.replay_fallbacks << "},";
    return actual;
  }
  const OraclePin& pin = pins[index];
  EXPECT_EQ(actual.digest, pin.digest) << label;
  EXPECT_EQ(actual.migrations, pin.migrations) << label;
  EXPECT_EQ(actual.rejections, pin.rejections) << label;
  EXPECT_EQ(actual.replay_fallbacks, pin.replay_fallbacks) << label;
  return actual;
}

}  // namespace bsa::testing
