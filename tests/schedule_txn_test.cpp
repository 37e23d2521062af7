#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bsa_oracle.hpp"
#include "common/rng.hpp"
#include "core/bsa.hpp"
#include "exp/experiment.hpp"
#include "network/cost_model.hpp"
#include "sched/retime.hpp"
#include "sched/retime_context.hpp"
#include "sched/schedule.hpp"
#include "workloads/random_dag.hpp"

/// \file schedule_txn_test.cpp
/// The transactional mutation journal (Schedule::Transaction):
///  * direct unit tests — randomized journaled mutation sequences roll
///    back bit-exactly (placements, order vectors, routes, link-booking
///    orders), transactions are reusable, commit keeps mutations, the
///    set_route unwind truncates the journal;
///  * RetimeContext::undo_migration leaves the context exactly consistent
///    with the rolled-back schedule (check_consistency);
///  * end-to-end properties — the move oracle (testing::MoveOracle, a
///    core::MoveEngine::Observer) finds every guarded rollback of BSA
///    restoring the pre-migration schedule and a consistent re-timing
///    context, across topologies x routings x gate rules x policies, and
///    each result matches the one pinned from the build that still
///    carried the snapshot-rollback and per-call-allocating evaluation
///    references (see bsa_oracle.hpp).

namespace bsa {
namespace {

using core::BsaOptions;
using sched::Hop;
using sched::Schedule;

using testing::diff_schedules;
using testing::expect_bsa_oracle_run;
using testing::OraclePin;

// --- direct journal unit tests ----------------------------------------------

struct TxnFixture : ::testing::Test {
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

  /// A small populated schedule with a cross-processor route.
  Schedule make_schedule() {
    Schedule s(g, topo);
    s.place_task(A, 0, 0, 10);
    s.place_task(C, 0, 10, 20);
    s.place_task(D, 0, 20, 30);
    const LinkId l01 = topo.link_between(0, 1);
    s.set_route(0, {Hop{l01, 10, 14}});
    s.place_task(B, 1, 14, 24);
    s.set_route(2, {Hop{l01, 24, 28}});
    return s;
  }
};

TEST_F(TxnFixture, RollbackRestoresEveryMutatorExactly) {
  Schedule s = make_schedule();
  const Schedule before = s;
  const LinkId l01 = topo.link_between(0, 1);
  const LinkId l12 = topo.link_between(1, 2);

  Schedule::Transaction txn;
  s.begin_transaction(txn);
  EXPECT_TRUE(s.in_transaction());

  // Exercise every mutator at least once.
  s.set_task_times(D, 25, 35);
  s.set_hop_times(0, 0, 11, 15);
  s.clear_route(2);            // kEraseHop
  s.unplace_task(B);           // kUnplaceTask
  s.clear_route(0);
  s.place_task(B, 2, 14, 24);  // kPlaceTask
  s.set_route(0, {Hop{l01, 10, 14}, Hop{l12, 14, 18}});  // kAppendHop x2
  s.append_hop(2, Hop{l12, 30, 34});
  EXPECT_GT(txn.size(), 0u);

  s.rollback_transaction();
  EXPECT_FALSE(s.in_transaction());
  EXPECT_EQ(txn.size(), 0u);
  EXPECT_TRUE(diff_schedules(s, before).empty())
      << diff_schedules(s, before);
}

TEST_F(TxnFixture, CommitKeepsMutationsAndTransactionIsReusable) {
  Schedule s = make_schedule();
  Schedule::Transaction txn;

  s.begin_transaction(txn);
  s.set_task_times(D, 25, 35);
  s.commit_transaction();
  EXPECT_DOUBLE_EQ(s.start_of(D), 25);

  // Reuse the same journal for a rolled-back episode.
  const Schedule before = s;
  s.begin_transaction(txn);
  s.unplace_task(D);
  s.place_task(D, 2, 40, 50);
  s.rollback_transaction();
  EXPECT_TRUE(diff_schedules(s, before).empty());
  EXPECT_DOUBLE_EQ(s.start_of(D), 25);
}

TEST_F(TxnFixture, UnplaceRollbackRestoresOrderPositionAmongTies) {
  // Two tasks with identical (start, finish) on one processor: re-placing
  // by time comparison could swap them, the journaled position must not.
  graph::TaskGraphBuilder b2;
  (void)b2.add_task(10);
  (void)b2.add_task(10);
  const graph::TaskGraph g2 = b2.build();
  Schedule s(g2, topo);
  s.place_task(0, 0, 0, 10);
  s.place_task(1, 0, 0, 10);  // tie: inserted after task 0
  const std::vector<TaskId> order_before = s.tasks_on(0);

  Schedule::Transaction txn;
  s.begin_transaction(txn);
  s.unplace_task(0);  // head of the tie group
  s.rollback_transaction();
  EXPECT_EQ(s.tasks_on(0), order_before);
}

TEST_F(TxnFixture, SetRouteUnwindTruncatesJournal) {
  Schedule s = make_schedule();
  const Schedule before = s;
  const LinkId l01 = topo.link_between(0, 1);
  Schedule::Transaction txn;
  s.begin_transaction(txn);
  // Second hop overlaps the existing booking of edge 0 at [10,14): the
  // strong-exception-safety unwind must also discard the first hop's
  // journal record.
  EXPECT_ANY_THROW(
      s.set_route(1, {Hop{l01, 0, 5}, Hop{l01, 8, 13}}));
  EXPECT_EQ(txn.size(), 0u);
  s.rollback_transaction();
  EXPECT_TRUE(diff_schedules(s, before).empty());
}

TEST_F(TxnFixture, RetimeWritesInsideTransactionRollBack) {
  Schedule s = make_schedule();
  const Schedule before = s;
  Schedule::Transaction txn;
  s.begin_transaction(txn);
  s.set_task_times(A, 5, 15);  // push A later; retime will ripple
  ASSERT_TRUE(testing::try_retime(s, cm, nullptr));
  s.rollback_transaction();
  EXPECT_TRUE(diff_schedules(s, before).empty());
}

TEST_F(TxnFixture, UndoMigrationLeavesContextConsistent) {
  Schedule s(g, topo);
  s.place_task(A, 0, 0, 10);
  s.place_task(B, 0, 10, 20);
  s.place_task(C, 0, 20, 30);
  s.place_task(D, 0, 30, 40);
  sched::RetimeContext ctx(s, cm);
  const Schedule before = s;

  // A BSA-style guarded migration of B to P1, rejected via rollback.
  Schedule::Transaction txn;
  ctx.begin_migration(B);
  s.begin_transaction(txn);
  const LinkId l01 = topo.link_between(0, 1);
  s.unplace_task(B);
  s.set_route(0, {Hop{l01, 10, 14}});
  s.place_task(B, 1, 14, 24);
  s.set_route(2, {Hop{l01, 24, 28}});
  ASSERT_TRUE(ctx.retime_migration(B, nullptr));
  s.rollback_transaction();
  ctx.undo_migration(B);

  EXPECT_TRUE(diff_schedules(s, before).empty());
  EXPECT_EQ(ctx.check_consistency(), "");
  EXPECT_EQ(ctx.stats().undos, 1);

  // The context must still retime future migrations exactly: migrate B
  // for real and compare against the full-rebuild reference.
  ctx.begin_migration(B);
  s.unplace_task(B);
  s.set_route(0, {Hop{l01, 10, 14}});
  s.place_task(B, 1, 14, 24);
  s.set_route(2, {Hop{l01, 24, 28}});
  Schedule reference = s;
  ASSERT_TRUE(testing::try_retime(reference, cm, nullptr));
  ASSERT_TRUE(ctx.retime_migration(B, nullptr));
  EXPECT_TRUE(diff_schedules(s, reference).empty());
}

TEST_F(TxnFixture, RandomizedMutationSequencesRollBackExactly) {
  // Random valid mutation bursts on a live schedule; every burst must
  // roll back bit-exactly. Exercises interleavings the directed tests
  // above cannot enumerate.
  workloads::RandomDagParams params;
  params.num_tasks = 24;
  params.seed = 321;
  const auto rg = workloads::random_layered_dag(params);
  const auto rtopo = exp::make_topology("ring", 6, 5);
  const auto rcm =
      exp::make_cost_model(rg, rtopo, 1, 30, 1, 30, false, 17);
  BsaOptions opt;
  opt.seed = 5;
  auto result = core::schedule_bsa(rg, rtopo, rcm, opt);
  Schedule s = std::move(result.schedule);

  Rng rng(99);
  Schedule::Transaction txn;
  for (int burst = 0; burst < 50; ++burst) {
    const Schedule before = s;
    s.begin_transaction(txn);
    const int ops = 1 + static_cast<int>(rng.index(6));
    for (int i = 0; i < ops; ++i) {
      const TaskId t = static_cast<TaskId>(
          rng.index(static_cast<std::size_t>(rg.num_tasks())));
      switch (rng.index(3)) {
        case 0: {  // displace a task and its routes
          if (!s.is_placed(t)) break;
          for (const EdgeId e : rg.in_edges(t)) s.clear_route(e);
          for (const EdgeId e : rg.out_edges(t)) s.clear_route(e);
          const Time st = s.start_of(t);
          const ProcId p = static_cast<ProcId>(
              rng.index(static_cast<std::size_t>(rtopo.num_processors())));
          s.unplace_task(t);
          const Time ready = st + static_cast<Time>(rng.index(40));
          const Time dur = rcm.exec_cost(t, p);
          const Time slot = s.earliest_task_slot(p, ready, dur);
          s.place_task(t, p, slot, slot + dur);
          break;
        }
        case 1: {  // clear one route
          const EdgeId e = static_cast<EdgeId>(
              rng.index(static_cast<std::size_t>(rg.num_edges())));
          s.clear_route(e);
          break;
        }
        case 2: {  // nudge times (valid but order-perturbing)
          if (!s.is_placed(t)) break;
          const Time st = s.start_of(t);
          const Time ft = s.finish_of(t);
          s.set_task_times(t, st + 1, ft + 1);
          break;
        }
      }
    }
    s.rollback_transaction();
    const std::string diff = diff_schedules(s, before);
    ASSERT_TRUE(diff.empty()) << "burst " << burst << ": " << diff;
  }
}

// --- end-to-end rollback oracle ---------------------------------------------

// BSA runs with its per-migration oracle on (bsa_oracle.hpp): after
// every rejected migration the schedule must equal the pre-migration one
// and the re-timing context must be consistent with it; each result is
// pinned. Each test also requires rejections, without which the rollback
// property would hold vacuously.

TEST(ScheduleTxnProperty, BitIdenticalAcrossTopologiesAndRoutings) {
  const std::vector<OraclePin> pins = {
    {0x260730571f325bc5ull, 3, 16, 0},
    {0x6214ddaa765b3380ull, 25, 1, 0},
    {0x72b9a06b50f24a68ull, 7, 10, 0},
    {0xd81217f02852a185ull, 48, 11, 8},
    {0xca6f057ceb0e3215ull, 0, 0, 0},
    {0xece8a444403dddaeull, 29, 7, 4},
    {0x3c7cf99805a658b3ull, 33, 8, 3},
    {0x7381e3c197ad2c78ull, 64, 9, 5},
    {0xec13b96c37ab2fc3ull, 7, 4, 0},
    {0xd84246962b92be32ull, 23, 2, 0},
    {0x160e0f0361b227cull, 10, 14, 3},
    {0xec1debeaa4096395ull, 56, 1, 0},
    {0xdc9d1a8d6247ad7full, 4, 10, 0},
    {0xe1859078d4cdd1a3ull, 23, 0, 0},
    {0x2b282ce6272aab6bull, 41, 17, 5},
    {0x358e5727d65c7864ull, 55, 4, 0},
  };
  std::int64_t rejections = 0;
  int case_index = 0;
  const std::vector<std::string> kinds{"ring", "hypercube", "clique",
                                      "random"};
  for (const std::string& kind : kinds) {
    for (const int size : {25, 60}) {
      for (const auto routing : {core::RouteDiscipline::kIncremental,
                                 core::RouteDiscipline::kStaticShortestPath}) {
        const auto seed = derive_seed(
            4242, static_cast<std::uint64_t>(case_index), 11);
        workloads::RandomDagParams params;
        params.num_tasks = size;
        params.granularity = (case_index % 2) == 0 ? 0.5 : 2.0;
        params.seed = seed;
        const auto g = workloads::random_layered_dag(params);
        const auto topo = exp::make_topology(kind, 8, seed);
        const auto cm = exp::make_cost_model(g, topo, 1, 50, 1, 50,
                                             (case_index % 2) == 1,
                                             derive_seed(seed, 17));
        BsaOptions opt;
        opt.seed = seed;
        opt.routing = routing;
        opt.max_sweeps = 2;
        std::ostringstream label;
        label << kind << "/" << size << "/routing="
              << static_cast<int>(routing);
        rejections += expect_bsa_oracle_run(
                          g, topo, cm, opt, label.str(), pins,
                          static_cast<std::size_t>(case_index))
                          .rejections;
        ++case_index;
      }
    }
  }
  // The property is vacuous unless guarded rollbacks actually happened.
  EXPECT_GT(rejections, 0);
}

TEST(ScheduleTxnProperty, BitIdenticalAcrossGatePolicyAndPruneVariants) {
  const auto seed = derive_seed(77, 3);
  workloads::RandomDagParams params;
  params.num_tasks = 50;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("hypercube", 16, seed);
  const auto cm =
      exp::make_cost_model(g, topo, 1, 100, 1, 100, false,
                           derive_seed(seed, 17));
  const std::vector<OraclePin> pins = {
    {0x734052702271740aull, 4, 1, 0},
    {0x734052702271740aull, 4, 1, 0},
    {0xbed990218c86b8c8ull, 10, 0, 0},
    {0xbed990218c86b8c8ull, 10, 0, 0},
    {0x734052702271740aull, 4, 1, 0},
    {0x734052702271740aull, 4, 1, 0},
    {0xbed990218c86b8c8ull, 10, 0, 0},
    {0xbed990218c86b8c8ull, 10, 0, 0},
  };
  std::int64_t rejections = 0;
  std::size_t case_index = 0;
  for (const auto gate :
       {core::GateRule::kPaper, core::GateRule::kAlwaysConsider}) {
    for (const auto policy : {core::MigrationPolicy::kMakespanGuarded,
                              core::MigrationPolicy::kTaskGreedy}) {
      for (const bool prune : {false, true}) {
        BsaOptions opt;
        opt.seed = seed;
        opt.gate = gate;
        opt.policy = policy;
        opt.prune_route_cycles = prune;
        opt.max_sweeps = 3;
        std::ostringstream label;
        label << "gate=" << static_cast<int>(gate)
              << " policy=" << static_cast<int>(policy) << " prune=" << prune;
        rejections += expect_bsa_oracle_run(g, topo, cm, opt, label.str(),
                                            pins, case_index++)
                          .rejections;
      }
    }
  }
  EXPECT_GT(rejections, 0);
}

TEST(ScheduleTxnProperty, BitIdenticalUnderEcubeAndAppendSlots) {
  const auto seed = derive_seed(13, 8);
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = 1.0;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = exp::make_topology("hypercube", 8, seed);
  const auto cm =
      exp::make_cost_model(g, topo, 1, 50, 1, 50, false, derive_seed(seed, 17));
  const std::vector<OraclePin> pins = {
    {0x83670ef17e1a332cull, 14, 10, 2},
    {0xf70ef2bfb14e0dedull, 12, 8, 0},
  };
  std::int64_t rejections = 0;
  std::size_t case_index = 0;
  for (const bool insertion : {true, false}) {
    BsaOptions opt;
    opt.seed = seed;
    opt.routing = core::RouteDiscipline::kEcube;
    opt.insertion_slots = insertion;
    opt.max_sweeps = 2;
    rejections += expect_bsa_oracle_run(g, topo, cm, opt,
                                        insertion ? "ecube/insert"
                                                  : "ecube/append",
                                        pins, case_index++)
                      .rejections;
  }
  EXPECT_GT(rejections, 0);
}

}  // namespace
}  // namespace bsa
