#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <typeinfo>
#include <utility>
#include <vector>

#include "bsa_oracle.hpp"
#include "common/rng.hpp"
#include "core/bsa.hpp"
#include "core/move_engine.hpp"
#include "core/refine.hpp"
#include "exp/experiment.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "sched/retime.hpp"
#include "sched/retime_context.hpp"
#include "sched/schedule.hpp"
#include "sched/schedule_io.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/workload_registry.hpp"

namespace bsa {

namespace sched {
/// Reads the replay workspace's own schedule (declared friend in
/// retime.hpp).
struct ReplayerTestPeer {
  static const Schedule& workspace(const Replayer& r) { return r.work_; }
};
}  // namespace sched

namespace {

using core::BsaOptions;
using sched::Hop;
using sched::RetimeContext;
using sched::Schedule;

using testing::diff_schedules;
using testing::expect_bsa_oracle_run;
using testing::OraclePin;

// BSA runs under the move oracle (testing::MoveOracle, bsa_oracle.hpp):
// every incremental re-timing is checked against the full rebuild
// testing::try_retime on a copy of the mutated schedule (same cycle
// verdict, same schedule), and each result is pinned.

TEST(RetimeContextProperty, BitIdenticalToFullRebuildOnRandomScenarios) {
  const std::vector<OraclePin> pins = {
    {0x1aa3d34c70023df5ull, 7, 3, 0},
    {0xdcf954c6e87abc9ull, 5, 2, 0},
    {0xe8de1d4847132eedull, 6, 2, 0},
    {0x3aea903373266394ull, 18, 7, 0},
    {0x9e297763677600daull, 0, 0, 0},
    {0x29364a47aeef55a1ull, 34, 13, 3},
    {0x93f8fd34e57692daull, 6, 3, 0},
    {0x2081dc967f07bd16ull, 10, 2, 0},
    {0xdca1ffdefeb79c19ull, 3, 5, 0},
    {0xeb42a2e7e0eab1e1ull, 18, 7, 1},
    {0x660f93eecb9c3521ull, 29, 4, 1},
    {0xe6ddc3d4c7a2ad82ull, 37, 11, 1},
    {0xc05d3535074c085dull, 17, 1, 0},
    {0xb4472c1a1bebee72ull, 10, 1, 0},
    {0x56f10ebf99ade7ull, 36, 3, 0},
    {0x5e667e90c326cda7ull, 27, 6, 0},
    {0x4cf002c8d19b2423ull, 6, 6, 0},
    {0xef7bf3f2fa7f5bd1ull, 57, 9, 0},
    {0x6cf9fea01b42a76dull, 0, 0, 0},
    {0x1acc187a00998116ull, 11, 3, 0},
    {0xfb78eb130b4ac41ull, 33, 5, 1},
    {0xf35d816c123a914aull, 23, 4, 0},
    {0x11932255edf9fb81ull, 16, 10, 0},
    {0xcde99c898a6f7c94ull, 37, 10, 0},
  };
  const std::vector<std::string> topologies{"ring", "hypercube", "clique",
                                            "random"};
  int case_index = 0;
  for (const std::string& kind : topologies) {
    for (const int size : {20, 45, 80}) {
      for (const bool per_pair : {false, true}) {
        const auto seed = derive_seed(
            2026, static_cast<std::uint64_t>(case_index), 77);
        workloads::RandomDagParams params;
        params.num_tasks = size;
        params.granularity = per_pair ? 0.5 : 2.0;
        params.seed = seed;
        const auto g = workloads::random_layered_dag(params);
        const auto topo = exp::make_topology(kind, 8, seed);
        const auto cm = exp::make_cost_model(g, topo, 1, 50, 1, 50, per_pair,
                                             derive_seed(seed, 17));
        BsaOptions opt;
        opt.seed = seed;
        std::ostringstream label;
        label << kind << "/" << size << (per_pair ? "/per-pair" : "/per-proc");
        (void)expect_bsa_oracle_run(g, topo, cm, opt, label.str(), pins,
                                    static_cast<std::size_t>(case_index));
        ++case_index;
      }
    }
  }
}

TEST(RetimeContextProperty, BitIdenticalAcrossOptionVariants) {
  const auto seed = derive_seed(99, 5);
  workloads::RandomDagParams params;
  params.num_tasks = 60;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("hypercube", 16, seed);
  const auto cm =
      exp::make_cost_model(g, topo, 1, 100, 1, 100, false, derive_seed(seed, 17));

  const std::vector<OraclePin> pins = {
    {0x55d85cd52e9edc85ull, 1, 14, 5},
    {0x55d85cd52e9edc85ull, 1, 14, 0},
    {0x55d85cd52e9edc85ull, 1, 14, 5},
    {0x55d85cd52e9edc85ull, 1, 14, 0},
    {0x9615006328b5174cull, 91, 0, 14},
    {0x409aa00992da16cfull, 46, 0, 3},
    {0xe79753c9c1c63d82ull, 84, 0, 8},
    {0xf1a8c1879f5984b3ull, 44, 0, 5},
  };
  std::size_t case_index = 0;
  // Replay fallbacks per policy: the guarded one discards or keeps a
  // replay, the greedy one always keeps it.
  std::int64_t guarded_fallbacks = 0;
  std::int64_t greedy_fallbacks = 0;
  for (const auto policy : {core::MigrationPolicy::kMakespanGuarded,
                            core::MigrationPolicy::kTaskGreedy}) {
    for (const auto gate :
         {core::GateRule::kPaper, core::GateRule::kAlwaysConsider}) {
      for (const bool insertion : {true, false}) {
        BsaOptions opt;
        opt.seed = seed;
        opt.policy = policy;
        opt.gate = gate;
        opt.insertion_slots = insertion;
        opt.max_sweeps = 3;
        std::ostringstream label;
        label << "policy=" << static_cast<int>(policy)
              << " gate=" << static_cast<int>(gate)
              << " insertion=" << insertion;
        const std::int64_t fallbacks =
            expect_bsa_oracle_run(g, topo, cm, opt, label.str(), pins,
                                  case_index++)
                .replay_fallbacks;
        (policy == core::MigrationPolicy::kTaskGreedy ? greedy_fallbacks
                                                      : guarded_fallbacks) +=
            fallbacks;
      }
    }
  }
  EXPECT_GT(guarded_fallbacks, 0);
  EXPECT_GT(greedy_fallbacks, 0);
}

TEST(RetimeContextProperty, BitIdenticalUnderStaticRouting) {
  const auto seed = derive_seed(7, 3);
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("hypercube", 8, seed);
  const auto cm =
      exp::make_cost_model(g, topo, 1, 50, 1, 50, false, derive_seed(seed, 17));
  const std::vector<OraclePin> pins = {
    {0xc1e751e34a58c422ull, 10, 5, 0},
    {0xf1081046534acbabull, 10, 6, 0},
    {0x889a52fa484f9d06ull, 9, 6, 0},
  };
  std::size_t case_index = 0;
  for (const auto routing : {core::RouteDiscipline::kStaticShortestPath,
                             core::RouteDiscipline::kEcube,
                             core::RouteDiscipline::kIncremental}) {
    BsaOptions opt;
    opt.seed = seed;
    opt.routing = routing;
    opt.prune_route_cycles =
        routing == core::RouteDiscipline::kIncremental;
    (void)expect_bsa_oracle_run(
        g, topo, cm, opt,
        "routing=" + std::to_string(static_cast<int>(routing)), pins,
        case_index++);
  }
}

// --- direct context unit tests ----------------------------------------------

struct RetimeContextFixture : ::testing::Test {
  graph::TaskGraph make_graph() {
    graph::TaskGraphBuilder b;
    const TaskId a = b.add_task(10, "A");
    const TaskId bb = b.add_task(10, "B");
    const TaskId c = b.add_task(10, "C");
    const TaskId d = b.add_task(10, "D");
    (void)b.add_edge(a, bb, 4);
    (void)b.add_edge(a, c, 4);
    (void)b.add_edge(bb, d, 4);
    (void)b.add_edge(c, d, 4);
    return b.build();
  }
  graph::TaskGraph g = make_graph();
  net::Topology topo = net::Topology::ring(3);
  net::HeterogeneousCostModel cm =
      net::HeterogeneousCostModel::homogeneous(g, topo);
  TaskId A = 0, B = 1, C = 2, D = 3;
};

TEST_F(RetimeContextFixture, FullRetimeMatchesReference) {
  Schedule s(g, topo);
  s.place_task(A, 0, 0, 10);
  s.place_task(B, 0, 10, 20);
  s.place_task(C, 0, 20, 30);
  s.place_task(D, 0, 30, 40);
  s.unplace_task(B);
  const LinkId l01 = topo.link_between(0, 1);
  s.set_route(0, {Hop{l01, 10, 14}});
  s.place_task(B, 1, 14, 24);
  s.set_route(2, {Hop{l01, 24, 28}});

  Schedule reference = s;
  Time mk_ref = 0;
  ASSERT_TRUE(testing::try_retime(reference, cm, &mk_ref));

  RetimeContext ctx(s, cm);
  Time mk = 0;
  ASSERT_TRUE(ctx.retime_full(&mk));
  EXPECT_DOUBLE_EQ(mk, mk_ref);
  EXPECT_TRUE(diff_schedules(s, reference).empty());
  EXPECT_EQ(ctx.stats().node_count, 4 + 2);  // 4 tasks, 2 booked hops
}

TEST_F(RetimeContextFixture, FullRetimeDetectsOrderCycle) {
  graph::TaskGraphBuilder b2;
  const TaskId x = b2.add_task(10);
  const TaskId y = b2.add_task(10);
  (void)b2.add_edge(x, y, 4);
  const graph::TaskGraph g2 = b2.build();
  const auto cm2 = net::HeterogeneousCostModel::homogeneous(g2, topo);
  Schedule s(g2, topo);
  s.place_task(y, 0, 0, 10);
  s.place_task(x, 0, 10, 20);
  RetimeContext ctx(s, cm2);
  Time mk = 0;
  EXPECT_FALSE(ctx.retime_full(&mk));
  // Schedule untouched on failure.
  EXPECT_DOUBLE_EQ(s.start_of(y), 0);
}

TEST_F(RetimeContextFixture, MigrationDeltaMatchesReference) {
  // Serial schedule on P0, then migrate B to P1 the way BSA commits it.
  Schedule s(g, topo);
  s.place_task(A, 0, 0, 10);
  s.place_task(B, 0, 10, 20);
  s.place_task(C, 0, 20, 30);
  s.place_task(D, 0, 30, 40);
  RetimeContext ctx(s, cm);

  ctx.begin_migration(B);
  const LinkId l01 = topo.link_between(0, 1);
  s.unplace_task(B);
  s.set_route(0, {Hop{l01, 10, 14}});  // A->B crosses to P1
  s.place_task(B, 1, 14, 24);
  s.set_route(2, {Hop{l01, 24, 28}});  // B->D back to P0

  Schedule reference = s;
  Time mk_ref = 0;
  ASSERT_TRUE(testing::try_retime(reference, cm, &mk_ref));

  Time mk = 0;
  ASSERT_TRUE(ctx.retime_migration(B, &mk));
  EXPECT_DOUBLE_EQ(mk, mk_ref);
  EXPECT_TRUE(diff_schedules(s, reference).empty());
  EXPECT_EQ(ctx.stats().migrations, 1);
  EXPECT_GT(ctx.stats().nodes_recomputed, 0);
}

// --- change-driven engine vs the try_retime oracle --------------------------

/// The schedule mutations of moving `t` to `p` (core::MoveEngine's move):
/// clear its routes, re-route crossing messages along static shortest
/// paths at the earliest free link slots, place it at its earliest slot.
/// Outgoing messages are booked from the new finish, which regularly
/// creates order cycles with the bookings already on their links.
void move_task(Schedule& s, const net::HeterogeneousCostModel& cm,
               const net::RoutingTable& table, TaskId t, ProcId p) {
  const auto& g = s.task_graph();
  s.unplace_task(t);
  for (const EdgeId e : g.in_edges(t)) s.clear_route(e);
  for (const EdgeId e : g.out_edges(t)) s.clear_route(e);
  std::vector<EdgeId> incoming;
  Time drt = 0;
  for (const EdgeId e : g.in_edges(t)) {
    if (s.proc_of(g.edge_src(e)) == p) {
      drt = std::max(drt, s.finish_of(g.edge_src(e)));
    } else {
      incoming.push_back(e);
    }
  }
  std::sort(incoming.begin(), incoming.end(), [&](EdgeId a, EdgeId b) {
    const Time fa = s.finish_of(g.edge_src(a));
    const Time fb = s.finish_of(g.edge_src(b));
    return fa != fb ? fa < fb : a < b;
  });
  for (const EdgeId e : incoming) {
    Time ready = s.finish_of(g.edge_src(e));
    for (const LinkId l : table.route(s.proc_of(g.edge_src(e)), p)) {
      const Time dur = cm.comm_cost(e, l);
      const Time st = s.earliest_link_slot(l, ready, dur);
      s.append_hop(e, Hop{l, st, st + dur});
      ready = st + dur;
    }
    drt = std::max(drt, ready);
  }
  const Time dur = cm.exec_cost(t, p);
  const Time st = s.earliest_task_slot(p, drt, dur);
  s.place_task(t, p, st, st + dur);
  for (const EdgeId e : g.out_edges(t)) {
    const ProcId pd = s.proc_of(g.edge_dst(e));
    if (pd == p) continue;
    Time ready = st + dur;
    for (const LinkId l : table.route(p, pd)) {
      const Time hd = cm.comm_cost(e, l);
      const Time hs = s.earliest_link_slot(l, ready, hd);
      s.append_hop(e, Hop{l, hs, hs + hd});
      ready = hs + hd;
    }
  }
}

struct OracleTally {
  int deltas = 0;
  int cycles = 0;
  int undos = 0;
  int adoptions = 0;
};

/// A random migration stream over `s`, which must be a re-timing
/// fixpoint. After every delta the context's verdict and times must equal
/// try_retime on a copy of the mutated schedule. Each delta is then
/// rolled back (transaction or snapshot copy) and undone, committed, or —
/// when it failed — replayed and adopted, mirroring BSA and SA.
void run_oracle(Schedule& s, const net::HeterogeneousCostModel& cm,
                std::uint64_t seed, int steps, OracleTally& tally,
                const std::string& label) {
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  const net::RoutingTable table(topo);
  RetimeContext ctx(s, cm);
  ASSERT_EQ(ctx.check_consistency(), "") << label;
  Schedule::Transaction txn;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const std::string where = label + " step " + std::to_string(step);
    const auto t = static_cast<TaskId>(rng.uniform_int(0, g.num_tasks() - 1));
    auto p = static_cast<ProcId>(
        rng.uniform_int(0, topo.num_processors() - 2));
    if (p >= s.proc_of(t)) ++p;
    const bool use_txn = rng.bernoulli(0.5);
    const Schedule before = s;
    Schedule reference = before;
    move_task(reference, cm, table, t, p);
    const bool reference_ok = testing::try_retime(reference, cm, nullptr);

    ctx.begin_migration(t);
    if (use_txn) s.begin_transaction(txn);
    move_task(s, cm, table, t, p);
    const bool ok = ctx.retime_migration(t, nullptr);
    ++tally.deltas;
    ASSERT_EQ(ok, reference_ok) << where;
    if (ok) {
      ASSERT_EQ(diff_schedules(s, reference), "") << where;
      ASSERT_EQ(ctx.check_consistency(), "") << where;
    } else {
      ++tally.cycles;
    }
    if (rng.bernoulli(ok ? 0.3 : 0.5)) {
      if (use_txn) {
        s.rollback_transaction();
      } else {
        s = before;
      }
      ctx.undo_migration(t);
      ++tally.undos;
      ASSERT_EQ(diff_schedules(s, before), "") << where;
      ASSERT_EQ(ctx.check_consistency(), "") << where << " (after undo)";
      continue;
    }
    if (use_txn) s.commit_transaction();
    if (ok) continue;
    (void)testing::replay_retime(s, cm, true);
    const std::int64_t recomputed = ctx.stats().nodes_recomputed;
    ctx.adopt_schedule();
    ++tally.adoptions;
    EXPECT_EQ(ctx.stats().nodes_recomputed, recomputed) << where;
    ASSERT_EQ(ctx.check_consistency(), "") << where << " (after adopt)";
    // Adoption runs no sweep because a replay result is already a
    // fixpoint: a full re-timing moves nothing.
    Schedule full = s;
    RetimeContext fresh(full, cm);
    ASSERT_TRUE(fresh.retime_full(nullptr)) << where;
    ASSERT_EQ(diff_schedules(full, s), "") << where << " (replay fixpoint)";
  }
}

TEST(RetimeContextOracle, RandomMigrationStreamsMatchTryRetime) {
  const std::vector<std::string> topologies{"ring", "hypercube", "mesh",
                                            "random"};
  OracleTally tally;
  int case_index = 0;
  for (const std::string& kind : topologies) {
    for (const int size : {16, 40}) {
      for (const bool per_pair : {false, true}) {
        const auto seed =
            derive_seed(4711, static_cast<std::uint64_t>(case_index++));
        workloads::RandomDagParams params;
        params.num_tasks = size;
        params.granularity = per_pair ? 0.5 : 1.5;
        params.seed = seed;
        const auto g = workloads::random_layered_dag(params);
        const auto topo = exp::make_topology(kind, 8, seed);
        const auto cm = exp::make_cost_model(g, topo, 1, 20, 1, 20, per_pair,
                                             derive_seed(seed, 17));
        // Start from a BSA result (a fixpoint) or from HEFT pulled to its
        // fixpoint, which leaves more slack for migrations to move.
        Schedule s = sched::SchedulerRegistry::global()
                         .resolve(case_index % 2 == 0 ? "bsa" : "heft")
                         ->run(g, topo, cm, seed)
                         .schedule;
        if (!testing::try_retime(s, cm, nullptr)) {
          (void)testing::replay_retime(s, cm, true);
        }
        std::ostringstream label;
        label << kind << "/" << size << (per_pair ? "/per-pair" : "");
        run_oracle(s, cm, derive_seed(seed, 3), 120, tally, label.str());
      }
    }
  }
  // The streams exercised every path.
  EXPECT_GT(tally.cycles, 0);
  EXPECT_GT(tally.undos, 0);
  EXPECT_GT(tally.adoptions, 0);
  EXPECT_GT(tally.deltas - tally.cycles, tally.cycles);
}

/// Layered DAG whose tasks and messages are often free: zero-length
/// tasks and zero-cost messages make many start times tie, so times
/// cannot stand in for the topological order.
graph::TaskGraph zero_heavy_graph(std::uint64_t seed) {
  Rng rng(seed);
  graph::TaskGraphBuilder b;
  const int layers = 5;
  const int width = 5;
  std::vector<std::vector<TaskId>> layer(layers);
  for (int l = 0; l < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      const Cost w = rng.bernoulli(0.5) ? 0 : static_cast<Cost>(rng.uniform_int(1, 6));
      layer[static_cast<std::size_t>(l)].push_back(b.add_task(w));
    }
  }
  for (int l = 1; l < layers; ++l) {
    for (const TaskId dst : layer[static_cast<std::size_t>(l)]) {
      for (const TaskId src : layer[static_cast<std::size_t>(l - 1)]) {
        if (!rng.bernoulli(0.4)) continue;
        const Cost c = rng.bernoulli(0.6) ? 0 : static_cast<Cost>(rng.uniform_int(1, 4));
        (void)b.add_edge(src, dst, c);
      }
    }
  }
  return b.build();
}

TEST(RetimeContextOracle, ZeroLengthTasksAndFreeMessages) {
  OracleTally tally;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = zero_heavy_graph(seed);
    const auto topo = seed % 2 == 0 ? net::Topology::ring(4)
                                    : exp::make_topology("hypercube", 8, seed);
    const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
    Schedule s = sched::SchedulerRegistry::global()
                     .resolve("bsa")
                     ->run(g, topo, cm, seed)
                     .schedule;
    run_oracle(s, cm, derive_seed(seed, 9), 150, tally,
               "zero-heavy seed " + std::to_string(seed));
  }
  EXPECT_GT(tally.undos, 0);
}

TEST_F(RetimeContextFixture, TiedZeroLengthChainKeepsItsOrder) {
  // x -> y -> z are zero-length and all start at 10 on P0, behind A: their
  // times tie, only the order constraints tell them apart. Migrating y to
  // P1 over free messages must still re-time exactly like try_retime.
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(10, "A");
  const TaskId x = b.add_task(0, "x");
  const TaskId y = b.add_task(0, "y");
  const TaskId z = b.add_task(0, "z");
  (void)b.add_edge(a, x, 0);
  (void)b.add_edge(x, y, 0);
  (void)b.add_edge(y, z, 0);
  const graph::TaskGraph g2 = b.build();
  const auto cm2 = net::HeterogeneousCostModel::homogeneous(g2, topo);
  Schedule s(g2, topo);
  s.place_task(a, 0, 0, 10);
  s.place_task(x, 0, 10, 10);
  s.place_task(y, 0, 10, 10);
  s.place_task(z, 0, 10, 10);
  RetimeContext ctx(s, cm2);
  ASSERT_EQ(ctx.check_consistency(), "");

  ctx.begin_migration(y);
  const LinkId l01 = topo.link_between(0, 1);
  s.unplace_task(y);
  s.set_route(1, {Hop{l01, 10, 10}});
  s.place_task(y, 1, 10, 10);
  s.set_route(2, {Hop{l01, 10, 10}});
  Schedule reference = s;
  ASSERT_TRUE(testing::try_retime(reference, cm2, nullptr));
  ASSERT_TRUE(ctx.retime_migration(y, nullptr));
  EXPECT_EQ(diff_schedules(s, reference), "");
  EXPECT_EQ(ctx.check_consistency(), "");
}

// --- MoveEngine keeps one context for the whole run ---------------------------

TEST(MoveEngineRetime, ReplaysNeverForceAFullRebuild) {
  // A HEFT schedule on a ring: many SA-style moves re-issue routes into
  // order cycles and fall back to replay. The context undoes those deltas
  // like any other, so it is never rebuilt after construction, and every
  // measurement matches a freshly built engine's.
  const auto seed = derive_seed(5, 17);
  workloads::RandomDagParams params;
  params.num_tasks = 30;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("ring", 8, seed);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 50, 1, 50, derive_seed(seed, 17));
  Schedule s =
      sched::SchedulerRegistry::global().resolve("heft")->run(g, topo, cm, 1).schedule;
  core::MoveEngine engine(s, cm);
  const std::int64_t built = engine.stats().retime.full_rebuilds;
  const std::string pristine = sched::schedule_to_text(s);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      if (p == s.proc_of(t)) continue;
      const Time len = engine.evaluate(t, p);
      ASSERT_EQ(sched::schedule_to_text(s), pristine) << t << "->" << p;
      Schedule copy = s;
      core::MoveEngine fresh(copy, cm);
      ASSERT_EQ(len, fresh.evaluate(t, p)) << t << "->" << p;
    }
  }
  EXPECT_GT(engine.stats().replay_fallbacks, 0);
  EXPECT_EQ(engine.stats().retime.full_rebuilds, built);
  EXPECT_GT(engine.stats().retime.undos, 0);
}

TEST(MoveEngineRetime, DiscardNeedsAJournaledBegin) {
  // A move begun without a journal cannot be rolled back: discard must
  // refuse it rather than leave the schedule half restored.
  const auto seed = derive_seed(5, 17);
  workloads::RandomDagParams params;
  params.num_tasks = 12;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("ring", 4, seed);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 50, 1, 50, derive_seed(seed, 17));
  Schedule s =
      sched::SchedulerRegistry::global().resolve("heft")->run(g, topo, cm, 1).schedule;
  core::MoveEngine engine(s, cm);
  engine.begin(0, false);
  EXPECT_THROW(engine.discard(), PreconditionError);
}

TEST(MoveEngineRetime, EvaluateMeasuresLikeTheSnapshotCopyPath) {
  // The former evaluation restored the schedule, copied it, re-applied
  // the move and replayed the copy. The engine now replays the mutated
  // schedule in its workspace before rolling back; every measured length
  // — replayed or re-timed — must equal that reference, and evaluate
  // must leave the schedule text untouched.
  const auto seed = derive_seed(5, 17);
  workloads::RandomDagParams params;
  params.num_tasks = 30;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("ring", 8, seed);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 50, 1, 50, derive_seed(seed, 17));
  const net::RoutingTable table(topo);
  Schedule s =
      sched::SchedulerRegistry::global().resolve("heft")->run(g, topo, cm, 1).schedule;
  core::MoveEngine engine(s, cm);
  std::int64_t replayed = 0;
  // Every move from the start schedule and from four later ones, each
  // reached by applying one move (an SA-style walk).
  for (int round = 0; round < 5; ++round) {
    if (round > 0) {
      const auto t = static_cast<TaskId>((7 * round) % g.num_tasks());
      engine.apply(t, (s.proc_of(t) + 3) % topo.num_processors());
    }
    const std::string pristine = sched::schedule_to_text(s);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      for (ProcId p = 0; p < topo.num_processors(); ++p) {
        if (p == s.proc_of(t)) continue;
        const std::int64_t fallbacks = engine.stats().replay_fallbacks;
        const Time len = engine.evaluate(t, p);
        ASSERT_EQ(sched::schedule_to_text(s), pristine) << t << "->" << p;
        const bool fell_back = engine.stats().replay_fallbacks > fallbacks;
        replayed += fell_back;
        Schedule snapshot = s;
        move_task(snapshot, cm, table, t, p);
        const bool reference_retimed =
            testing::try_retime(snapshot, cm, nullptr);
        ASSERT_EQ(fell_back, !reference_retimed) << t << "->" << p;
        if (!reference_retimed) {
          (void)testing::reference_replay(snapshot, cm, true);
        }
        ASSERT_EQ(len, snapshot.makespan()) << t << "->" << p;
      }
    }
  }
  EXPECT_GT(replayed, 20);
}

// --- the replay workspace -----------------------------------------------------

TEST(ReplayerWorkspace, ReusedWorkspaceEqualsTheFormerReplay) {
  // One workspace per slot mode, reused over consecutive schedules of
  // one instance (every registered list scheduler's, BSA's, and the
  // replays of those): measure leaves its input untouched, and the kept
  // result equals both the former replay (fresh schedule, per-edge
  // vectors) and replay_retime on a copy.
  const auto seed = derive_seed(23, 5);
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = 0.5;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("ring", 8, seed);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 20, 1, 10, derive_seed(seed, 3));
  std::vector<Schedule> inputs;
  for (const char* spec : {"heft", "bsa", "dls", "mh", "peft", "eft"}) {
    inputs.push_back(
        sched::SchedulerRegistry::global().resolve(spec)->run(g, topo, cm, 1)
            .schedule);
  }
  for (const bool insertion : {true, false}) {
    sched::Replayer replayer(g, topo, cm, insertion);
    std::vector<Schedule> chain = inputs;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const std::string where = std::to_string(i) +
                                (insertion ? " insertion" : " append");
      const std::string before = sched::schedule_to_text(chain[i]);
      // A measure that is not kept leaves nothing behind.
      (void)replayer.measure(chain[(i + 1) % chain.size()]);
      const Time makespan = replayer.measure(chain[i]);
      ASSERT_EQ(sched::schedule_to_text(chain[i]), before) << where;

      Schedule expected = chain[i];
      const Time expected_makespan =
          testing::reference_replay(expected, cm, insertion);
      Schedule wrapped = chain[i];
      const Time wrapped_makespan =
          testing::replay_retime(wrapped, cm, insertion);
      Schedule kept = chain[i];
      replayer.swap_into(kept);

      EXPECT_EQ(makespan, expected_makespan) << where;
      EXPECT_EQ(wrapped_makespan, expected_makespan) << where;
      ASSERT_EQ(diff_schedules(kept, expected), "") << where;
      ASSERT_EQ(sched::schedule_to_text(wrapped),
                sched::schedule_to_text(kept))
          << where;
      ASSERT_TRUE(sched::validate(kept, cm).ok()) << where;
      // Replay the replays too, up to three rounds per input.
      if (chain.size() < 3 * inputs.size()) chain.push_back(std::move(kept));
    }
  }
}

TEST(ReplayerWorkspace, MeasureWritesNoScheduleUntilKept) {
  // measure is a pure computation: the workspace schedule keeps what the
  // last swap_into left there (nothing at first) over any number of
  // measures, and only a kept replay is written. Its makespan is the
  // kept schedule's. Both slot modes.
  const auto seed = derive_seed(23, 7);
  workloads::RandomDagParams params;
  params.num_tasks = 50;
  params.granularity = 0.5;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("hypercube", 8, seed);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 4, 1, 2, derive_seed(seed, 3));
  std::vector<Schedule> inputs;
  for (const char* spec : {"bsa", "heft", "dls"}) {
    inputs.push_back(
        sched::SchedulerRegistry::global().resolve(spec)->run(g, topo, cm, 1)
            .schedule);
  }
  for (const bool insertion : {true, false}) {
    const std::string mode = insertion ? "insertion" : "append";
    sched::Replayer replayer(g, topo, cm, insertion);
    const Schedule& workspace = sched::ReplayerTestPeer::workspace(replayer);
    std::string scratch = sched::schedule_to_text(workspace);
    ASSERT_EQ(workspace.num_placed(), 0) << mode;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (const Schedule& other : inputs) (void)replayer.measure(other);
      const Time makespan = replayer.measure(inputs[i]);
      ASSERT_EQ(sched::schedule_to_text(workspace), scratch) << mode << i;

      Schedule kept = inputs[i];
      const std::string previous = sched::schedule_to_text(kept);
      replayer.swap_into(kept);
      EXPECT_EQ(makespan, kept.makespan()) << mode << i;
      ASSERT_TRUE(sched::validate(kept, cm).ok()) << mode << i;
      Schedule expected = inputs[i];
      (void)testing::reference_replay(expected, cm, insertion);
      ASSERT_EQ(diff_schedules(kept, expected), "") << mode << i;
      // The kept schedule's previous content is the workspace's scratch.
      scratch = sched::schedule_to_text(workspace);
      ASSERT_EQ(scratch, previous) << mode << i;
    }
  }
}

// --- the replay kernel against the heap-driven replay ------------------------

/// The replay's booking rule — sched::earliest_fit (or the append rule)
/// and sched::insert_interval on one interval list per resource — with
/// the items taken from a binary heap of the ready ones on (priority,
/// kind, id, hop). This is what sched::Replayer::measure computes, as a
/// plain heap-driven loop. Returns the makespan; a booking that breaks
/// a list's neighbour rule throws from insert_interval, as the replay's
/// does.
Time heap_replay(const Schedule& s, const net::HeterogeneousCostModel& cm,
                 bool insertion) {
  const auto& g = s.task_graph();
  const auto num_procs =
      static_cast<std::size_t>(s.topology().num_processors());
  std::vector<std::vector<sched::Interval>> busy(
      num_procs + static_cast<std::size_t>(s.topology().num_links()));
  std::vector<Time> edge_ready(static_cast<std::size_t>(g.num_edges()), 0);
  std::vector<int> waits(static_cast<std::size_t>(g.num_tasks()));
  using Item = std::tuple<Time, int, std::int64_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> ready;
  const auto book = [&](std::size_t r, Time at, Time dur) {
    auto& list = busy[r];
    const Time st =
        insertion ? sched::earliest_fit(list, at, dur)
                  : std::max(at, list.empty() ? Time{0} : list.back().finish);
    sched::insert_interval(list, sched::Interval{st, st + dur});
    return st;
  };
  const auto arrival_known = [&](EdgeId e) {
    const TaskId dst = g.edge_dst(e);
    if (--waits[static_cast<std::size_t>(dst)] == 0) {
      ready.emplace(s.start_of(dst), 0, dst, 0);
    }
  };
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    waits[static_cast<std::size_t>(t)] = g.in_degree(t);
    if (g.in_degree(t) == 0) ready.emplace(s.start_of(t), 0, t, 0);
  }
  Time makespan = 0;
  while (!ready.empty()) {
    const auto [prio, kind, id, k] = ready.top();
    ready.pop();
    if (kind == 0) {
      const auto t = static_cast<TaskId>(id);
      Time drt = 0;
      for (const EdgeId e : g.in_edges(t)) {
        drt = std::max(drt, edge_ready[static_cast<std::size_t>(e)]);
      }
      const Time dur = cm.exec_cost(t, s.proc_of(t));
      const Time st = book(static_cast<std::size_t>(s.proc_of(t)), drt, dur);
      makespan = std::max(makespan, st + dur);
      for (const EdgeId e : g.out_edges(t)) {
        edge_ready[static_cast<std::size_t>(e)] = st + dur;
        if (s.route_of(e).empty()) {
          arrival_known(e);
        } else {
          ready.emplace(s.route_of(e)[0].start, 1, e, 0);
        }
      }
    } else {
      const auto e = static_cast<EdgeId>(id);
      const auto& route = s.route_of(e);
      const LinkId l = route[static_cast<std::size_t>(k)].link;
      auto& at = edge_ready[static_cast<std::size_t>(e)];
      const Time dur = cm.comm_cost(e, l);
      at = book(num_procs + static_cast<std::size_t>(l), at, dur) + dur;
      if (static_cast<std::size_t>(k + 1) < route.size()) {
        ready.emplace(route[static_cast<std::size_t>(k + 1)].start, 1, e,
                      k + 1);
      } else {
        arrival_known(e);
      }
    }
  }
  return makespan;
}

/// What a call returned, or the type and message of what it threw.
template <class F>
std::string outcome_of(F&& f) {
  try {
    std::ostringstream os;
    os << "makespan " << std::hexfloat << f();
    return os.str();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

/// A 40-task DAG with one-decimal costs (sums round) where every third
/// task and every third edge costs zero.
graph::TaskGraph one_decimal_zero_cost_graph(std::uint64_t seed) {
  Rng rng(seed);
  graph::TaskGraphBuilder b;
  for (int i = 0; i < 40; ++i) {
    (void)b.add_task(
        i % 3 == 1 ? 0 : static_cast<Cost>(rng.uniform_int(1, 97)) / 10);
  }
  int edges = 0;
  for (TaskId j = 1; j < 40; ++j) {
    std::vector<TaskId> used;
    for (int m = static_cast<int>(rng.uniform_int(1, 3)); m > 0; --m) {
      const auto i = static_cast<TaskId>(rng.uniform_int(0, j - 1));
      if (std::find(used.begin(), used.end(), i) != used.end()) continue;
      used.push_back(i);
      const Cost c =
          edges++ % 3 == 0 ? 0 : static_cast<Cost>(rng.uniform_int(1, 61)) / 10;
      (void)b.add_edge(i, j, c);
    }
  }
  return b.build();
}

/// Collapse every priority (task and hop start) onto a few values —
/// -q, 0 (half of them -0.0), q, 2q, ... — so that tasks and hops tie.
/// Only the starts matter to a replay; finishes are set equal.
void collapse_priorities(Schedule& s, Time q, Rng& rng) {
  const auto coarse = [&](Time start) {
    const Time v = (std::floor(start / q) - 1) * q;
    return v == 0 && rng.bernoulli(0.5) ? -0.0 : v;
  };
  for (TaskId t = 0; t < s.task_graph().num_tasks(); ++t) {
    const Time v = coarse(s.start_of(t));
    s.set_task_times(t, v, v);
  }
  for (LinkId l = 0; l < s.topology().num_links(); ++l) {
    const auto& bookings = s.bookings_on(l);
    for (std::size_t i = 0; i < bookings.size(); ++i) {
      const Time v = coarse(bookings[i].start);
      s.set_hop_times(bookings[i].edge, bookings[i].hop_index, v, v, i);
    }
  }
}

/// Items that become ready only after their own priority has passed: a
/// task or hop whose priority is below one of its predecessors'.
int late_items(const Schedule& s) {
  const auto& g = s.task_graph();
  int late = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    Time prev = s.start_of(g.edge_src(e));
    for (const Hop& h : s.route_of(e)) {
      late += h.start < prev;
      prev = h.start;
    }
    late += s.start_of(g.edge_dst(e)) < prev;
  }
  return late;
}

TEST(Replayer, MatchesReferenceReplayOnAdversarialSchedules) {
  // measure and swap_into against reference_replay, and against the
  // heap-driven loop for the outcome (a makespan, or the same exception
  // type and message), on schedules built to stress the order array:
  // moves left un-retimed (successors ready only after the scan passed
  // their priority), priorities collapsed onto a few values (ties
  // between tasks and hops, -0.0 against +0.0, negative values), and
  // zero-cost tasks and edges, some with one-decimal costs; both slot
  // modes.
  struct Tally {
    int cases = 0, late = 0, collapsed = 0, zero_cost = 0, throws = 0;
  } tally;
  const auto check = [&](const Schedule& s,
                         const net::HeterogeneousCostModel& cm,
                         const std::string& label) {
    for (const bool insertion : {true, false}) {
      const std::string where = label + (insertion ? " insertion" : " append");
      ++tally.cases;
      sched::Replayer replayer(s.task_graph(), s.topology(), cm, insertion);
      const std::string expected =
          outcome_of([&] { return heap_replay(s, cm, insertion); });
      ASSERT_EQ(outcome_of([&] { return replayer.measure(s); }), expected)
          << where;
      if (expected.rfind("makespan", 0) != 0) {
        ++tally.throws;
        continue;
      }
      Schedule reference = s;
      const Time reference_makespan =
          testing::reference_replay(reference, cm, insertion);
      EXPECT_EQ(replayer.measure(s), reference_makespan) << where;
      Schedule kept = s;
      replayer.swap_into(kept);
      ASSERT_EQ(diff_schedules(kept, reference), "") << where;
    }
  };

  // Where both slot modes land task `t` in a replay of `s`.
  const auto replayed_starts = [](const Schedule& s,
                                  const net::HeterogeneousCostModel& cm,
                                  TaskId t) {
    std::vector<Time> starts;
    for (const bool insertion : {true, false}) {
      Schedule copy = s;
      (void)testing::reference_replay(copy, cm, insertion);
      starts.push_back(copy.start_of(t));
    }
    return starts;
  };
  {
    // L sits on P1 from 0.3; the zero-length Z is ready at 0.1 + 0.2,
    // just above 0.3. It does not fit before L, however short the
    // distance, so it waits for L's finish instead of nesting in L.
    graph::TaskGraphBuilder b;
    const TaskId a = b.add_task(0.3);
    const TaskId l = b.add_task(1);
    const TaskId t1 = b.add_task(0.1);
    const TaskId t2 = b.add_task(0.2);
    const TaskId z = b.add_task(0);
    const EdgeId al = b.add_edge(a, l, 0);
    (void)b.add_edge(t1, t2, 0);
    const EdgeId t2z = b.add_edge(t2, z, 0);
    const graph::TaskGraph g = b.build();
    const auto topo = net::Topology::clique(3);
    const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
    Schedule s(g, topo);
    s.place_task(a, 0, 0, 0.3);
    s.append_hop(al, Hop{topo.link_between(0, 1), 0.3, 0.3});
    s.place_task(l, 1, 0.3, 1.3);
    s.place_task(t1, 2, 0, 0.1);
    s.place_task(t2, 2, 0.1, 0.1 + 0.2);
    s.append_hop(t2z, Hop{topo.link_between(2, 1), 0.1 + 0.2, 0.1 + 0.2});
    s.place_task(z, 1, 2, 2);
    check(s, cm, "zero-length just after a start");
    EXPECT_EQ(replayed_starts(s, cm, z), (std::vector<Time>{1.3, 1.3}));
  }
  {
    // Finishes that would decrease under a tolerance: P0 books
    // z = [5, 5 + 5e-10); the zero-length x, ready at 5 + 2e-10, does not
    // fit before z and lands on its finish, and w, ready at 5 + 3e-10,
    // lands behind both. The finishes stay sorted.
    graph::TaskGraphBuilder b;
    const TaskId s1 = b.add_task(5);
    const TaskId s2 = b.add_task(5 + 2e-10);
    const TaskId s3 = b.add_task(5 + 3e-10);
    const TaskId z = b.add_task(5e-10);
    const TaskId x = b.add_task(0);
    const TaskId w = b.add_task(1);
    const EdgeId to_z = b.add_edge(s1, z, 0);
    const EdgeId to_x = b.add_edge(s2, x, 0);
    const EdgeId to_w = b.add_edge(s3, w, 0);
    const graph::TaskGraph g = b.build();
    const auto topo = net::Topology::clique(4);
    const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
    Schedule s(g, topo);
    const std::vector<std::pair<TaskId, EdgeId>> feeds{
        {s1, to_z}, {s2, to_x}, {s3, to_w}};
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      const auto [src, e] = feeds[i];
      const auto p = static_cast<ProcId>(i + 1);
      const Time f = cm.exec_cost(src, p);
      s.place_task(src, p, 0, f);
      s.append_hop(e, Hop{topo.link_between(p, 0), f, f});
    }
    s.place_task(z, 0, 10, 10);
    s.place_task(x, 0, 11, 11);
    s.place_task(w, 0, 12, 13);
    check(s, cm, "sorted finishes");
    const Time z_finish = Time{5} + 5e-10;
    EXPECT_EQ(replayed_starts(s, cm, x),
              (std::vector<Time>{z_finish, z_finish}));
    EXPECT_EQ(replayed_starts(s, cm, w),
              (std::vector<Time>{z_finish, z_finish}));
  }

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<graph::TaskGraph> graphs;
    graphs.push_back(one_decimal_zero_cost_graph(seed));
    graphs.push_back(zero_heavy_graph(seed));
    workloads::RandomDagParams params;
    params.num_tasks = 40;
    params.seed = seed;
    graphs.push_back(workloads::random_layered_dag(params));
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const auto& g = graphs[gi];
      const auto topo = seed % 2 == 0
                            ? net::Topology::ring(4)
                            : exp::make_topology("hypercube", 8, seed);
      const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
      const net::RoutingTable table(topo);
      Rng rng(derive_seed(seed, gi));
      for (const char* spec : {"heft", "bsa", "dls"}) {
        const Schedule base = sched::SchedulerRegistry::global()
                                  .resolve(spec)
                                  ->run(g, topo, cm, seed)
                                  .schedule;
        for (int variant = 0; variant < 3; ++variant) {
          Schedule s = base;
          if (variant > 0) {
            for (int moves = static_cast<int>(rng.uniform_int(1, 4));
                 moves > 0; --moves) {
              const auto t = static_cast<TaskId>(
                  rng.index(static_cast<std::size_t>(g.num_tasks())));
              auto p = static_cast<ProcId>(
                  rng.uniform_int(0, topo.num_processors() - 2));
              if (p >= s.proc_of(t)) ++p;
              move_task(s, cm, table, t, p);  // no re-timing
            }
          }
          if (variant == 2) {
            collapse_priorities(s, std::max(s.makespan() / 3, Time{1}), rng);
            ++tally.collapsed;
          }
          tally.late += late_items(s) > 0;
          tally.zero_cost += gi < 2;
          check(s, cm,
                std::string(spec) + " graph " + std::to_string(gi) + " seed " +
                    std::to_string(seed) + " variant " +
                    std::to_string(variant));
        }
      }
    }
  }
  EXPECT_GT(tally.late, 20);
  EXPECT_GT(tally.collapsed, 20);
  EXPECT_GT(tally.zero_cost, 20);
  EXPECT_GT(tally.cases, 200);
  EXPECT_EQ(tally.throws, 0);
}

// --- refine on the context ----------------------------------------------------

TEST(RefineRetimeDelta, ValidMonotoneAndDeterministic) {
  const auto seed = derive_seed(11, 4);
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("hypercube", 8, seed);
  const auto cm =
      exp::make_cost_model(g, topo, 1, 50, 1, 50, false, derive_seed(seed, 17));
  BsaOptions bsa_opt;
  bsa_opt.seed = seed;
  const auto base = core::schedule_bsa(g, topo, cm, bsa_opt);

  core::RefineOptions opt;
  opt.max_rounds = 2;
  const auto a = core::refine_schedule(base.schedule, cm, opt);
  const auto b = core::refine_schedule(base.schedule, cm, opt);

  EXPECT_TRUE(sched::validate(a.schedule, cm).ok());
  EXPECT_LE(a.final_length, a.initial_length);
  EXPECT_DOUBLE_EQ(a.schedule.makespan(), a.final_length);
  EXPECT_GT(a.candidates_evaluated, 0);
  // Deterministic: identical schedules across runs.
  EXPECT_TRUE(diff_schedules(a.schedule, b.schedule).empty());
  EXPECT_EQ(a.moves_applied, b.moves_applied);
}

TEST(RefineRetimeDelta, ImprovesOrKeepsAPoorSchedule) {
  // EFT-oblivious schedules leave headroom; refine must close some of it
  // without ever making the schedule worse.
  const auto seed = derive_seed(23, 9);
  workloads::RandomDagParams params;
  params.num_tasks = 30;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("ring", 8, seed);
  const auto cm =
      exp::make_cost_model(g, topo, 1, 50, 1, 50, false, derive_seed(seed, 17));
  BsaOptions bsa_opt;
  bsa_opt.seed = seed;
  const auto base = core::schedule_bsa(g, topo, cm, bsa_opt);
  const auto r = core::refine_schedule(base.schedule, cm);
  EXPECT_TRUE(sched::validate(r.schedule, cm).ok());
  EXPECT_LE(r.final_length, base.schedule.makespan());
}

// --- SA and refine under the move oracle ------------------------------------

/// Run `run` (returns a schedule) under a testing::MoveOracle and again
/// without one: every move must pass the oracle and the two schedules
/// must be identical. Adds the observed moves (and the replayed ones) to
/// the tallies.
template <class Run>
void expect_moves_pass_the_oracle(const Run& run, const std::string& label,
                                  std::int64_t& moves,
                                  std::int64_t& replayed) {
  const Schedule observed = [&] {
    const testing::MoveOracle oracle;
    Schedule s = run();
    EXPECT_EQ(oracle.failure(), "") << label;
    moves += oracle.moves();
    replayed += oracle.replayed_moves();
    return s;
  }();
  EXPECT_EQ(diff_schedules(observed, run()), "") << label;
}

TEST(MoveOracle, SaAndRefineMovesMatchTheReferences) {
  // SA's proposals (and, under init=bsa, BSA's migrations) and refine's
  // evaluations and applied moves, each checked as it happens.
  std::int64_t sa_moves = 0;
  std::int64_t sa_replayed = 0;
  std::int64_t refine_moves = 0;
  std::int64_t refine_replayed = 0;
  std::uint64_t case_index = 0;
  for (const std::string workload : {"random", "gauss"}) {
    for (const std::string kind : {"ring", "hypercube"}) {
      const auto seed = derive_seed(31, case_index++);
      const auto g = workloads::WorkloadRegistry::global()
                         .resolve(workload)
                         ->generate(/*target_tasks=*/40, 1.0, seed);
      const auto topo = exp::make_topology(kind, 8, seed);
      const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
          g, topo, 1, 50, 1, 50, derive_seed(seed, 17));
      const std::string label = workload + "/" + kind;
      for (const std::string spec : {"sa:init=heft", "sa:init=bsa"}) {
        const auto scheduler = sched::SchedulerRegistry::global().resolve(spec);
        expect_moves_pass_the_oracle(
            [&] { return scheduler->run(g, topo, cm, seed).schedule; },
            label + " " + spec, sa_moves, sa_replayed);
      }
      const Schedule heft = sched::SchedulerRegistry::global()
                                .resolve("heft")
                                ->run(g, topo, cm, seed)
                                .schedule;
      expect_moves_pass_the_oracle(
          [&] { return core::refine_schedule(heft, cm).schedule; },
          label + " refine", refine_moves, refine_replayed);
    }
  }
  // Both move streams, and the replay branch, were checked.
  EXPECT_GT(sa_moves, 400);
  EXPECT_GT(sa_replayed, 0);
  EXPECT_GT(refine_moves, 400);
  EXPECT_GT(refine_replayed, 0);
}

}  // namespace
}  // namespace bsa
