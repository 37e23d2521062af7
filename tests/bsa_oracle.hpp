#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <functional>
#include <ios>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bsa.hpp"
#include "network/cost_model.hpp"
#include "sched/link_probe.hpp"
#include "sched/retime.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"

/// \file bsa_oracle.hpp
/// Shared helpers for the BSA engine-equivalence tests
/// (retime_context_test, schedule_txn_test) and the replay tests:
///
///  * diff_schedules — bit-exact schedule comparison, including the parts
///    schedule_to_text omits (processor and link orders);
///  * schedule_digest — a 64-bit fingerprint of the same state, so a
///    scenario's result can be pinned as a literal;
///  * expect_bsa_oracle_run — run BSA with its per-migration oracle on
///    (BsaOptions::validate_each_step: re-timing checked against the full
///    rebuild sched::try_retime, rollbacks against the pre-migration
///    schedule), require the run byte-identical to one with the oracle
///    off, and compare it with a pinned digest / migration / rejection
///    triple. The pins were taken from the build that still carried the
///    full-rebuild, snapshot-rollback and per-call-allocating reference
///    engines as BSA options, where all engine combinations agreed. Each
///    pin also holds the run's replay-fallback count, the number of
///    times the move engine took its replay branch;
///  * reference_replay — the replay as it was before sched::Replayer: a
///    freshly allocated schedule, per-edge route vectors and a
///    std::priority_queue, move-assigned over the input. The workspace
///    must reproduce it bit for bit;
///  * replay_retime — one replay through a temporary sched::Replayer,
///    kept in place.

namespace bsa::testing {

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

/// A scenario's pinned result.
struct OraclePin {
  std::uint64_t digest = 0;
  std::size_t migrations = 0;
  std::int64_t rejections = 0;
  /// Migrations the engine settled by a replay (order-cycle fallbacks).
  std::int64_t replay_fallbacks = 0;
};

/// Run BSA with the oracle on and off, require identical schedules and a
/// valid result, and compare with `pins[index]`. A missing pin fails and
/// prints the row to add. Returns the run's actual result.
inline OraclePin expect_bsa_oracle_run(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& cm, core::BsaOptions opt,
    const std::string& label, const std::vector<OraclePin>& pins,
    std::size_t index) {
  opt.validate_each_step = true;
  std::optional<core::BsaResult> checked;
  try {
    checked.emplace(core::schedule_bsa(g, topo, cm, opt));
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": oracle failed: " << e.what();
    return {};
  }
  opt.validate_each_step = false;
  const core::BsaResult plain = core::schedule_bsa(g, topo, cm, opt);
  const std::string diff = diff_schedules(checked->schedule, plain.schedule);
  EXPECT_TRUE(diff.empty()) << label << ": oracle changed the run: " << diff;
  EXPECT_TRUE(sched::validate(plain.schedule, cm).ok()) << label;

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
