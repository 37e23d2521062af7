#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/list_common.hpp"
#include "bsa_oracle.hpp"
#include "common/rng.hpp"
#include "core/bsa.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "network/topology.hpp"
#include "sched/link_probe.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/schedule.hpp"
#include "sched/timeline.hpp"
#include "workloads/random_dag.hpp"

/// \file link_probe_test.cpp
/// A LinkProbe trial must equal the commit it predicts: on part-built
/// schedules (HEFT's placement order cut at half, as perfbench's direct
/// probe builds them, and the schedules BSA leaves between migrations
/// under incremental and static routing), every trial — hidden hops plus
/// tentative routes, in both slot modes — is replayed for real inside a
/// Schedule::Transaction (clear or truncate each hidden route, then
/// book_route every route) and must give the same arrivals and hop times.
/// The rollback must restore the schedule bit-exactly.

namespace bsa::sched {
namespace {

struct Hidden {
  EdgeId edge = kInvalidEdge;
  int from_hop = 0;
};

struct Routed {
  EdgeId edge = kInvalidEdge;
  std::vector<LinkId> links;
  Time ready = 0;
};

struct Trial {
  std::vector<Hidden> hidden;
  std::vector<Routed> routed;
};

/// Run `trial` on `probe` (a fresh trial), then commit it inside a
/// transaction and compare; rolls back and checks the schedule restored.
void expect_trial_equals_commit(Schedule& s,
                                const net::HeterogeneousCostModel& costs,
                                LinkProbe& probe, const Trial& trial,
                                bool insertion, const std::string& where) {
  const Schedule before = s;
  probe.begin();
  for (const Hidden& h : trial.hidden) probe.hide(h.edge, h.from_hop);
  std::vector<Time> probe_arrival;
  std::vector<std::vector<Hop>> probe_hops;
  for (const Routed& r : trial.routed) {
    probe_hops.emplace_back();
    probe_arrival.push_back(
        probe.route(r.edge, r.links, r.ready, &probe_hops.back()));
  }
  ASSERT_EQ(testing::diff_schedules(before, s), "")
      << where << ": the probe mutated the schedule";

  Schedule::Transaction txn;
  s.begin_transaction(txn);
  for (const Hidden& h : trial.hidden) {
    if (h.from_hop == 0) {
      s.clear_route(h.edge);
      continue;
    }
    std::vector<Hop> kept = s.route_of(h.edge);
    kept.resize(static_cast<std::size_t>(h.from_hop));
    s.clear_route(h.edge);
    s.set_route(h.edge, std::move(kept));
  }
  for (std::size_t i = 0; i < trial.routed.size(); ++i) {
    const Routed& r = trial.routed[i];
    const std::size_t first = s.route_of(r.edge).size();
    const Time arrival =
        book_route(s, costs, r.edge, r.links, r.ready, insertion);
    EXPECT_EQ(arrival, probe_arrival[i])
        << where << ": message " << r.edge << " (route " << i << ")";
    const auto& route = s.route_of(r.edge);
    ASSERT_EQ(route.size() - first, probe_hops[i].size()) << where;
    for (std::size_t k = 0; k < probe_hops[i].size(); ++k) {
      const Hop& booked = route[first + k];
      const Hop& tried = probe_hops[i][k];
      EXPECT_EQ(booked.link, tried.link) << where;
      EXPECT_EQ(booked.start, tried.start)
          << where << ": message " << r.edge << " hop " << first + k;
      EXPECT_EQ(booked.finish, tried.finish) << where;
    }
  }
  s.rollback_transaction();
  EXPECT_EQ(testing::diff_schedules(before, s), "")
      << where << ": rollback did not restore the schedule";
}

struct Instance {
  graph::TaskGraph g;
  net::Topology topo;
  net::HeterogeneousCostModel costs;
};

Instance make_instance(net::Topology topo, int tasks, std::uint64_t seed) {
  workloads::RandomDagParams params;
  params.num_tasks = tasks;
  params.granularity = 0.2;  // communication-heavy: contended links
  params.seed = seed;
  graph::TaskGraph g = workloads::random_layered_dag(params);
  net::HeterogeneousCostModel costs =
      net::HeterogeneousCostModel::uniform_processor_speeds(g, topo, 1, 4, 1,
                                                            3, seed);
  return Instance{std::move(g), std::move(topo), std::move(costs)};
}

/// Processor the kept prefix [0, hops) of `e`'s route ends on.
ProcId route_end(const Schedule& s, EdgeId e, int hops) {
  ProcId at = s.proc_of(s.task_graph().edge_src(e));
  for (int k = 0; k < hops; ++k) {
    at = s.topology().opposite(
        s.route_of(e)[static_cast<std::size_t>(k)].link, at);
  }
  return at;
}

/// A migration-shaped trial: move placed task `t` towards `py`. Each
/// in-edge is left alone, truncated at a random hop or cleared; every
/// message not local to `py` is then routed on from where its kept route
/// ends, along the routing table.
Trial migration_trial(const Schedule& s, const net::RoutingTable& table,
                      TaskId t, ProcId py, Rng& rng) {
  const auto& g = s.task_graph();
  Trial trial;
  for (const EdgeId e : g.in_edges(t)) {
    const TaskId src = g.edge_src(e);
    const int size = static_cast<int>(s.route_of(e).size());
    int kept = size;
    if (size > 0 && rng.bernoulli(0.7)) {
      kept = static_cast<int>(rng.uniform_int(0, size - 1));
      trial.hidden.push_back(Hidden{e, kept});
    }
    const ProcId end = route_end(s, e, kept);
    if (s.proc_of(src) == py && kept == 0) continue;
    const Time ready =
        kept == 0 ? s.finish_of(src)
                  : s.route_of(e)[static_cast<std::size_t>(kept - 1)].finish;
    trial.routed.push_back(Routed{e, table.route(end, py), ready});
  }
  return trial;
}

/// Placed tasks with at least one in-edge, in id order.
std::vector<TaskId> tasks_with_inputs(const Schedule& s) {
  std::vector<TaskId> out;
  for (TaskId t = 0; t < s.task_graph().num_tasks(); ++t) {
    if (s.is_placed(t) && s.task_graph().in_degree(t) > 0) out.push_back(t);
  }
  return out;
}

void run_migration_trials(Schedule& s, const Instance& inst, int count,
                          std::uint64_t seed, const std::string& where) {
  const net::RoutingTable table(inst.topo);
  const std::vector<TaskId> tasks = tasks_with_inputs(s);
  ASSERT_FALSE(tasks.empty());
  for (const bool insertion : {true, false}) {
    // One long-lived probe per mode: trials reuse its epoch-stamped state.
    LinkProbe probe(s, inst.costs, insertion);
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      const TaskId t = tasks[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(tasks.size()) - 1))];
      const auto py = static_cast<ProcId>(
          rng.uniform_int(0, inst.topo.num_processors() - 1));
      const Trial trial = migration_trial(s, table, t, py, rng);
      expect_trial_equals_commit(
          s, inst.costs, probe, trial, insertion,
          where + (insertion ? " insertion" : " append") + " trial " +
              std::to_string(i) + " (task " + std::to_string(t) + " -> P" +
              std::to_string(py) + ")");
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(probe.trials(), count);
  }
}

/// The first half of HEFT's placement order, booked through the list
/// schedulers' commit path (perfbench's direct-probe state).
Schedule part_built_heft(const Instance& inst) {
  const RankScheduleResult heft =
      schedule_heft(inst.g, inst.topo, inst.costs);
  const net::RoutingTable table(inst.topo);
  Schedule s(inst.g, inst.topo);
  for (std::size_t k = 0; k < heft.order.size() / 2; ++k) {
    const TaskId t = heft.order[k];
    const ProcId p = heft.schedule.proc_of(t);
    const Time ready =
        baselines::incoming_data_ready(s, table, inst.costs, t, p, true);
    const Time dur = inst.costs.exec_cost(t, p);
    const Time start = s.earliest_task_slot(p, ready, dur);
    s.place_task(t, p, start, start + dur);
  }
  return s;
}

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back(make_instance(net::Topology::ring(6), 60, 1));
  out.push_back(make_instance(net::Topology::hypercube(3), 80, 2));
  out.push_back(make_instance(net::Topology::mesh(2, 4), 70, 3));
  return out;
}

TEST(LinkProbe, ListSchedulerTrialsEqualCommitsOnPartBuiltHeft) {
  for (const Instance& inst : instances()) {
    Schedule s = part_built_heft(inst);
    const net::RoutingTable table(inst.topo);
    const auto& g = inst.g;
    int trials = 0;
    for (const bool insertion : {true, false}) {
      LinkProbe probe(s, inst.costs, insertion);
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        if (s.is_placed(t)) continue;
        bool ready = true;
        for (const EdgeId e : g.in_edges(t)) {
          ready = ready && s.is_placed(g.edge_src(e));
        }
        if (!ready) continue;
        for (ProcId p = 0; p < inst.topo.num_processors(); ++p) {
          // incoming_data_ready's trial: every crossing message along
          // the table route from its source's finish, in edge-id order.
          Trial trial;
          for (const EdgeId e : g.in_edges(t)) {
            const TaskId src = g.edge_src(e);
            if (s.proc_of(src) == p) continue;
            trial.routed.push_back(
                Routed{e, table.route(s.proc_of(src), p), s.finish_of(src)});
          }
          expect_trial_equals_commit(
              s, inst.costs, probe, trial, insertion,
              std::string(insertion ? "insertion" : "append") + " task " +
                  std::to_string(t) + " -> P" + std::to_string(p));
          ++trials;
          if (insertion) {
            // The list schedulers' own entry point agrees as well.
            const Time tentative = baselines::incoming_data_ready(
                s, table, inst.costs, t, p, false);
            Schedule::Transaction txn;
            s.begin_transaction(txn);
            EXPECT_EQ(baselines::incoming_data_ready(s, table, inst.costs, t,
                                                     p, true),
                      tentative);
            s.rollback_transaction();
          }
          if (HasFatalFailure()) return;
        }
      }
    }
    EXPECT_GT(trials, 0);
  }
}

TEST(LinkProbe, MigrationTrialsEqualCommitsOnBsaStates) {
  for (const core::RouteDiscipline routing :
       {core::RouteDiscipline::kIncremental,
        core::RouteDiscipline::kStaticShortestPath}) {
    std::uint64_t seed = 11;
    for (const Instance& inst : instances()) {
      // The schedule one BFS sweep leaves behind is the state a further
      // sweep starts migrating from.
      core::BsaOptions opt;
      opt.routing = routing;
      opt.prune_route_cycles = true;
      core::BsaResult run = core::schedule_bsa(inst.g, inst.topo, inst.costs,
                                               opt);
      ASSERT_FALSE(run.trace.migrations.empty());
      run_migration_trials(
          run.schedule, inst, 150, ++seed,
          routing == core::RouteDiscipline::kIncremental ? "incremental"
                                                         : "static");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LinkProbe, MigrationTrialsEqualCommitsOnPartBuiltHeft) {
  std::uint64_t seed = 41;
  for (const Instance& inst : instances()) {
    Schedule s = part_built_heft(inst);
    run_migration_trials(s, inst, 150, ++seed, "heft");
    if (HasFatalFailure()) return;
  }
}

/// The overlay rule the probe's copy-free first touch replaced, kept as
/// an oracle: every link a trial touches gets a copy of its bookings
/// minus the hidden hops, the trial's tentative hops are merged into it,
/// and each hop takes earliest_fit of the copy (under append: after its
/// last interval). Appends each message's hops to `hops`; returns the
/// arrivals.
std::vector<Time> overlay_reference(const Schedule& s,
                                    const net::HeterogeneousCostModel& costs,
                                    const Trial& trial, bool insertion,
                                    std::vector<std::vector<Hop>>& hops) {
  const auto hidden = [&trial](const LinkBooking& b) {
    for (const Hidden& h : trial.hidden) {
      if (h.edge == b.edge && b.hop_index >= h.from_hop) return true;
    }
    return false;
  };
  std::vector<std::vector<Interval>> busy(
      static_cast<std::size_t>(s.topology().num_links()));
  std::vector<bool> copied(busy.size(), false);
  std::vector<Time> arrivals;
  for (const Routed& r : trial.routed) {
    hops.emplace_back();
    Time ready = r.ready;
    for (const LinkId l : r.links) {
      auto& q = busy[static_cast<std::size_t>(l)];
      if (!copied[static_cast<std::size_t>(l)]) {
        copied[static_cast<std::size_t>(l)] = true;
        for (const LinkBooking& b : s.bookings_on(l)) {
          if (!hidden(b)) q.push_back(Interval{b.start, b.finish});
        }
      }
      const Time dur = costs.comm_cost(r.edge, l);
      const Time start =
          insertion ? earliest_fit(q, ready, dur)
                    : std::max(ready, q.empty() ? Time{0} : q.back().finish);
      insert_interval(q, Interval{start, start + dur});
      hops.back().push_back(Hop{l, start, start + dur});
      ready = start + dur;
    }
    arrivals.push_back(ready);
  }
  return arrivals;
}

/// A random trial over the placed messages of `s`: each picked message
/// is hidden from a random hop (or kept whole) and routed on from where
/// its kept route ends through one or two table routes, so a walk may
/// cross a link twice and messages share links. Each message is routed
/// at most once, as a commit appends to its route.
Trial random_trial(const Schedule& s, const net::RoutingTable& table,
                   Rng& rng) {
  const auto& g = s.task_graph();
  const int procs = s.topology().num_processors();
  Trial trial;
  const auto count = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<bool> used(static_cast<std::size_t>(g.num_edges()), false);
  for (int i = 0; i < count; ++i) {
    const auto e =
        static_cast<EdgeId>(rng.uniform_int(0, g.num_edges() - 1));
    if (used[static_cast<std::size_t>(e)] || !s.is_placed(g.edge_src(e))) {
      continue;
    }
    used[static_cast<std::size_t>(e)] = true;
    const int size = static_cast<int>(s.route_of(e).size());
    int kept = size;
    if (size > 0 && rng.bernoulli(0.5)) {
      kept = static_cast<int>(rng.uniform_int(0, size - 1));
      trial.hidden.push_back(Hidden{e, kept});
    }
    const Time ready =
        kept == 0 ? s.finish_of(g.edge_src(e))
                  : s.route_of(e)[static_cast<std::size_t>(kept - 1)].finish;
    const ProcId from = route_end(s, e, kept);
    const auto via = static_cast<ProcId>(rng.uniform_int(0, procs - 1));
    std::vector<LinkId> links = table.route(from, via);
    if (rng.bernoulli(0.5)) {
      // Out and back (in part): the walk crosses links a second time.
      const auto to = static_cast<ProcId>(rng.uniform_int(0, procs - 1));
      const std::vector<LinkId> more = table.route(via, to);
      links.insert(links.end(), more.begin(), more.end());
    }
    trial.routed.push_back(Routed{e, std::move(links), ready});
  }
  return trial;
}

TEST(LinkProbe, RandomTrialsEqualTheOverlayRuleAndTheirCommits) {
  std::uint64_t seed = 71;
  int hidden_trials = 0;
  int twice_trials = 0;
  int first_only_trials = 0;
  for (const Instance& inst : instances()) {
    core::BsaOptions opt;
    opt.prune_route_cycles = true;
    std::vector<Schedule> states;
    states.push_back(part_built_heft(inst));
    states.push_back(core::schedule_bsa(inst.g, inst.topo, inst.costs, opt)
                         .schedule);
    const net::RoutingTable table(inst.topo);
    for (Schedule& s : states) {
      for (const bool insertion : {true, false}) {
        LinkProbe probe(s, inst.costs, insertion);
        Rng rng(++seed);
        for (int i = 0; i < 200; ++i) {
          const Trial trial = random_trial(s, table, rng);
          const std::string where = std::string(insertion ? "insertion"
                                                          : "append") +
                                    " trial " + std::to_string(i);
          std::vector<std::vector<Hop>> ref_hops;
          const std::vector<Time> ref =
              overlay_reference(s, inst.costs, trial, insertion, ref_hops);
          probe.begin();
          for (const Hidden& h : trial.hidden) probe.hide(h.edge, h.from_hop);
          std::vector<int> touches(
              static_cast<std::size_t>(inst.topo.num_links()), 0);
          bool twice = false;
          for (std::size_t k = 0; k < trial.routed.size(); ++k) {
            const Routed& r = trial.routed[k];
            std::vector<Hop> hops;
            EXPECT_EQ(probe.route(r.edge, r.links, r.ready, &hops), ref[k])
                << where << ": message " << r.edge;
            ASSERT_EQ(hops.size(), ref_hops[k].size()) << where;
            for (std::size_t h = 0; h < hops.size(); ++h) {
              EXPECT_EQ(hops[h].start, ref_hops[k][h].start) << where;
              EXPECT_EQ(hops[h].finish, ref_hops[k][h].finish) << where;
            }
            for (const LinkId l : r.links) {
              twice = twice || ++touches[static_cast<std::size_t>(l)] == 2;
            }
          }
          hidden_trials += trial.hidden.empty() ? 0 : 1;
          twice_trials += twice ? 1 : 0;
          first_only_trials += trial.hidden.empty() && !twice ? 1 : 0;
          expect_trial_equals_commit(s, inst.costs, probe, trial, insertion,
                                     where);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // The mix the trials are meant to cover actually occurred.
  EXPECT_GT(hidden_trials, 100);
  EXPECT_GT(twice_trials, 100);
  EXPECT_GT(first_only_trials, 100);
}

TEST(LinkProbe, HiddenHopsFreeTheirSlots) {
  // One link: A->B books [10,14), A->C books [14,18). Hiding A->B's route
  // lets A->D's 4-unit message from 10 take its slot under insertion;
  // hiding from hop 1 (past its only hop) hides nothing.
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(10);
  const EdgeId ab = b.add_edge(a, b.add_task(10), 4);
  const EdgeId ac = b.add_edge(a, b.add_task(10), 4);
  const EdgeId ad = b.add_edge(a, b.add_task(10), 4);
  const graph::TaskGraph g = b.build();
  const net::Topology topo = net::Topology::linear(2);
  const auto costs = net::HeterogeneousCostModel::homogeneous(g, topo);
  Schedule s(g, topo);
  const LinkId l01 = topo.link_between(0, 1);
  s.place_task(a, 0, 0, 10);
  EXPECT_EQ(book_route(s, costs, ab, {&l01, 1}, 10, true), 14);
  EXPECT_EQ(book_route(s, costs, ac, {&l01, 1}, 10, true), 18);

  for (const bool insertion : {true, false}) {
    LinkProbe probe(s, costs, insertion);
    probe.begin();
    EXPECT_EQ(probe.route(ad, {&l01, 1}, 10), 22) << insertion;
    probe.begin();
    probe.hide(ab, 1);
    EXPECT_EQ(probe.route(ad, {&l01, 1}, 10), 22) << insertion;
    probe.begin();
    probe.hide(ab, 0);
    // Insertion refills the freed gap; append queues after A->C.
    EXPECT_EQ(probe.route(ad, {&l01, 1}, 10), insertion ? 14 : 22);
    // A later route of the same trial sees the tentative hop.
    EXPECT_EQ(probe.route(ad, {&l01, 1}, 10), insertion ? 22 : 26);
    EXPECT_EQ(probe.trials(), 3);
  }
  // Hidden hops must be declared before the trial's first route.
  LinkProbe probe(s, costs, true);
  probe.begin();
  (void)probe.route(ad, {&l01, 1}, 10);
  EXPECT_THROW(probe.hide(ab, 0), PreconditionError);
}

}  // namespace
}  // namespace bsa::sched
