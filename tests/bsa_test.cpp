#include <gtest/gtest.h>

#include "bsa_oracle.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/bsa.hpp"
#include "paper_fixture.hpp"
#include "sched/event_sim.hpp"
#include "sched/metrics.hpp"
#include "sched/schedule_io.hpp"
#include "sched/validate.hpp"

namespace bsa::core {
namespace {

namespace pf = bsa::testing;

struct BsaPaperTest : ::testing::Test {
  graph::TaskGraph g = pf::paper_task_graph();
  net::Topology topo = pf::paper_ring();
  net::HeterogeneousCostModel cm = pf::paper_cost_model(g, topo);
};

TEST_F(BsaPaperTest, ProducesValidSchedule) {
  const pf::MoveOracle oracle;  // checks every migration
  const auto result = schedule_bsa(g, topo, cm);
  EXPECT_EQ(oracle.failure(), "");
  EXPECT_GT(oracle.moves(), 0);
  EXPECT_TRUE(result.schedule.all_placed());
  const auto report = sched::validate(result.schedule, cm);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(BsaPaperTest, TraceMatchesPaperAnalytics) {
  const auto result = schedule_bsa(g, topo, cm);
  EXPECT_EQ(result.trace.first_pivot, 1);  // P2
  ASSERT_EQ(result.trace.pivot_cp_lengths.size(), 4u);
  EXPECT_DOUBLE_EQ(result.trace.pivot_cp_lengths[0], 240);
  EXPECT_DOUBLE_EQ(result.trace.pivot_cp_lengths[1], 226);
  EXPECT_DOUBLE_EQ(result.trace.pivot_cp_lengths[2], 235);
  EXPECT_DOUBLE_EQ(result.trace.pivot_cp_lengths[3], 260);
  // Serial injection = sum of exec costs on P2 = 7+50+28+14+42+20+43+18+16.
  EXPECT_DOUBLE_EQ(result.trace.initial_serial_length, 238);
  // BFS pivot order from P2 over the ring P1-P2-P3-P4.
  const std::vector<ProcId> expect_pivots{1, 0, 2, 3};
  EXPECT_EQ(result.trace.pivot_sequence, expect_pivots);
}

TEST_F(BsaPaperTest, ImprovesOnSerialSchedule) {
  const auto result = schedule_bsa(g, topo, cm);
  EXPECT_LT(result.schedule_length(), result.trace.initial_serial_length);
  EXPECT_GE(result.schedule_length(),
            sched::schedule_length_lower_bound(g, cm));
  EXPECT_FALSE(result.trace.migrations.empty());
}

TEST_F(BsaPaperTest, EntryCpTaskStaysOnPivot) {
  // §2.4: "T1, being the first CP task, does not migrate".
  const auto result = schedule_bsa(g, topo, cm);
  EXPECT_EQ(result.schedule.proc_of(pf::T1), 1);
  for (const Migration& m : result.trace.migrations) {
    EXPECT_NE(m.task, pf::T1);
  }
}

TEST_F(BsaPaperTest, MigrationsAreAlwaysToNeighbours) {
  const auto result = schedule_bsa(g, topo, cm);
  for (const Migration& m : result.trace.migrations) {
    EXPECT_NE(topo.link_between(m.from, m.to), kInvalidLink)
        << "migration " << m.task << " jumped " << m.from << "->" << m.to;
    EXPECT_GE(m.phase, 0);
    EXPECT_LT(m.phase, static_cast<int>(result.trace.pivot_sequence.size()));
    EXPECT_EQ(result.trace.pivot_sequence[static_cast<std::size_t>(m.phase)],
              m.from);
  }
}

TEST_F(BsaPaperTest, DeterministicAcrossRuns) {
  const auto a = schedule_bsa(g, topo, cm);
  const auto b = schedule_bsa(g, topo, cm);
  EXPECT_DOUBLE_EQ(a.schedule_length(), b.schedule_length());
  ASSERT_EQ(a.trace.migrations.size(), b.trace.migrations.size());
  for (std::size_t i = 0; i < a.trace.migrations.size(); ++i) {
    EXPECT_EQ(a.trace.migrations[i].task, b.trace.migrations[i].task);
    EXPECT_EQ(a.trace.migrations[i].to, b.trace.migrations[i].to);
  }
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(a.schedule.proc_of(t), b.schedule.proc_of(t));
    EXPECT_DOUBLE_EQ(a.schedule.start_of(t), b.schedule.start_of(t));
  }
}

TEST_F(BsaPaperTest, TimesAgreeWithEventSimulation) {
  const auto result = schedule_bsa(g, topo, cm);
  const auto sim = sched::simulate_execution(result.schedule, cm);
  ASSERT_TRUE(sim.completed) << sim.error;
  EXPECT_TRUE(sched::simulation_matches(result.schedule, sim));
}

TEST_F(BsaPaperTest, AblationVariantsStayValid) {
  for (const bool insertion : {true, false}) {
    for (const bool prune : {true, false}) {
      for (const bool vip : {true, false}) {
        for (const GateRule gate :
             {GateRule::kPaper, GateRule::kAlwaysConsider}) {
          BsaOptions opt;
          opt.insertion_slots = insertion;
          opt.prune_route_cycles = prune;
          opt.vip_rule = vip;
          opt.gate = gate;
          const auto result = schedule_bsa(g, topo, cm, opt);
          const auto report = sched::validate(result.schedule, cm);
          EXPECT_TRUE(report.ok())
              << "insertion=" << insertion << " prune=" << prune
              << " vip=" << vip << ": " << report.to_string();
        }
      }
    }
  }
}

TEST_F(BsaPaperTest, PrunedRoutesNeverRevisitProcessors) {
  BsaOptions opt;
  opt.prune_route_cycles = true;
  const auto result = schedule_bsa(g, topo, cm, opt);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& route = result.schedule.route_of(e);
    if (route.empty()) continue;
    std::vector<ProcId> walk{result.schedule.proc_of(g.edge_src(e))};
    for (const auto& hop : route) {
      walk.push_back(topo.opposite(hop.link, walk.back()));
    }
    std::vector<ProcId> sorted = walk;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "route of message " << e << " revisits a processor";
  }
}

// --- small targeted scenarios ------------------------------------------------

TEST(BsaSmall, SingleTaskGoesToFastestProcessor) {
  graph::TaskGraphBuilder b;
  (void)b.add_task(10);
  const auto g = b.build();
  const auto topo = net::Topology::ring(3);
  const std::vector<Cost> matrix{30, 10, 20};
  const auto cm =
      net::HeterogeneousCostModel::from_exec_matrix(g, topo, matrix);
  const auto result = schedule_bsa(g, topo, cm);
  EXPECT_EQ(result.schedule.proc_of(0), 1);
  EXPECT_DOUBLE_EQ(result.schedule_length(), 10);
}

TEST(BsaSmall, ExpensiveCommunicationKeepsChainTogether) {
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(10);
  const TaskId c = b.add_task(10);
  (void)b.add_edge(a, c, 1000);
  const auto g = b.build();
  const auto topo = net::Topology::ring(2);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  const auto result = schedule_bsa(g, topo, cm);
  EXPECT_EQ(result.schedule.proc_of(a), result.schedule.proc_of(c));
  EXPECT_DOUBLE_EQ(result.schedule_length(), 20);
}

TEST(BsaSmall, IndependentTasksSpreadAcrossProcessors) {
  graph::TaskGraphBuilder b;
  const TaskId s = b.add_task(1);
  const TaskId x = b.add_task(100);
  const TaskId y = b.add_task(100);
  (void)b.add_edge(s, x, 1);
  (void)b.add_edge(s, y, 1);
  const auto g = b.build();
  const auto topo = net::Topology::ring(2);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  const auto result = schedule_bsa(g, topo, cm);
  // Serial length is 201; parallelising x/y caps it near 102.
  EXPECT_LT(result.schedule_length(), 201);
  EXPECT_NE(result.schedule.proc_of(x), result.schedule.proc_of(y));
}

TEST(BsaSmall, SingleProcessorDegeneratesToSerialOrder) {
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(10);
  const TaskId c = b.add_task(20);
  (void)b.add_edge(a, c, 5);
  const auto g = b.build();
  const auto topo = net::Topology::from_links(1, {}, "solo");
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo);
  const auto result = schedule_bsa(g, topo, cm);
  EXPECT_DOUBLE_EQ(result.schedule_length(), 30);
  EXPECT_TRUE(result.trace.migrations.empty());
}

TEST(BsaSmall, EcubeRejectsTopologiesWithoutHypercubeAddressing) {
  graph::TaskGraphBuilder one;
  (void)one.add_task(10);
  const auto single = one.build();
  const auto ring = net::Topology::ring(4);
  BsaOptions opt;
  opt.routing = RouteDiscipline::kEcube;
  // Rejected before any work, even when no message would ever be routed:
  // 1 ^ 2 = 3 is not a ring neighbour of 1.
  EXPECT_THROW(
      (void)schedule_bsa(single, ring,
                         net::HeterogeneousCostModel::homogeneous(single, ring),
                         opt),
      PreconditionError);
  const auto six = net::Topology::ring(6);  // not a power of two
  EXPECT_THROW(
      (void)schedule_bsa(single, six,
                         net::HeterogeneousCostModel::homogeneous(single, six),
                         opt),
      PreconditionError);

  // A 2 x 2 mesh is a 2-cube with vertex addresses as ids.
  graph::TaskGraphBuilder b;
  const TaskId s = b.add_task(1);
  const TaskId x = b.add_task(100);
  const TaskId y = b.add_task(100);
  (void)b.add_edge(s, x, 1);
  (void)b.add_edge(s, y, 1);
  const auto g = b.build();
  const auto mesh = net::Topology::mesh(2, 2);
  const auto result = schedule_bsa(
      g, mesh, net::HeterogeneousCostModel::homogeneous(g, mesh), opt);
  EXPECT_EQ(sched::schedule_to_text(result.schedule),
            "# schedule: 3 tasks, 1 hops\n"
            "task 0 0 0 1\n"
            "task 1 1 2 102\n"
            "task 2 0 1 101\n"
            "hop 0 0 1 2\n");
}

TEST(BsaSmall, RejectsMismatchedCostModel) {
  graph::TaskGraphBuilder b;
  (void)b.add_task(10);
  const auto g = b.build();
  const auto topo2 = net::Topology::ring(2);
  const auto topo3 = net::Topology::ring(3);
  const auto cm = net::HeterogeneousCostModel::homogeneous(g, topo2);
  EXPECT_THROW((void)schedule_bsa(g, topo3, cm), PreconditionError);
}

// Reference reimplementation of the original O(n^2) prune loop: rebuild
// the whole processor walk after every single cut. prune_link_walk's
// single forward pass must pin its output exactly.
void prune_walk_reference(const net::Topology& topo,
                          std::vector<LinkId>& links, ProcId origin) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<ProcId> walk{origin};
    for (const LinkId l : links) {
      walk.push_back(topo.opposite(l, walk.back()));
    }
    std::vector<int> first_pos(
        static_cast<std::size_t>(topo.num_processors()), -1);
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const auto pi = static_cast<std::size_t>(walk[i]);
      if (first_pos[pi] < 0) {
        first_pos[pi] = static_cast<int>(i);
        continue;
      }
      const auto from = static_cast<std::ptrdiff_t>(first_pos[pi]);
      links.erase(links.begin() + from,
                  links.begin() + static_cast<std::ptrdiff_t>(i));
      changed = true;
      break;
    }
  }
}

TEST(PruneLinkWalk, MatchesReferenceOnDirectedCases) {
  const auto topo = net::Topology::clique(6);
  const auto link = [&](ProcId a, ProcId b) { return topo.link_between(a, b); };
  const std::vector<std::vector<LinkId>> cases{
      // No loop / single hop: untouched.
      {},
      {link(0, 1)},
      // Simple loop 0-1-2-1: cut back to the first visit of 1.
      {link(0, 1), link(1, 2), link(2, 1)},
      // Nested multi-loop 0-1-2-3-2-1-4: both loops collapse to 0-1-4.
      {link(0, 1), link(1, 2), link(2, 3), link(3, 2), link(2, 1),
       link(1, 4)},
      // Walk returning to the origin collapses entirely.
      {link(0, 1), link(1, 0)},
      {link(0, 1), link(1, 2), link(2, 1), link(1, 0)},
      // Loop at the origin followed by a fresh tail.
      {link(0, 1), link(1, 0), link(0, 2), link(2, 3)},
      // Two disjoint loops in one walk: 0-1-2-1-3-4-3-5 -> 0-1-3-5.
      {link(0, 1), link(1, 2), link(2, 1), link(1, 3), link(3, 4),
       link(4, 3), link(3, 5)},
  };
  const std::vector<std::vector<LinkId>> expected{
      {},
      {link(0, 1)},
      {link(0, 1)},
      {link(0, 1), link(1, 4)},
      {},
      {},
      {link(0, 2), link(2, 3)},
      {link(0, 1), link(1, 3), link(3, 5)},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::vector<LinkId> fast = cases[i];
    std::vector<LinkId> slow = cases[i];
    prune_link_walk(topo, fast, 0);
    prune_walk_reference(topo, slow, 0);
    EXPECT_EQ(fast, slow) << "case " << i;
    EXPECT_EQ(fast, expected[i]) << "case " << i;
  }
}

TEST(PruneLinkWalk, MatchesReferenceOnRandomMultiLoopWalks) {
  // Random walks revisit processors constantly on small topologies —
  // exactly the multi-loop inputs where the old loop went quadratic.
  for (const int procs : {4, 6, 9}) {
    const auto topo = net::Topology::ring(procs);
    Rng rng(derive_seed(2027, static_cast<std::uint64_t>(procs)));
    for (int iter = 0; iter < 200; ++iter) {
      const auto origin = static_cast<ProcId>(
          rng.index(static_cast<std::size_t>(procs)));
      std::vector<LinkId> walk;
      ProcId cur = origin;
      const int len = 1 + static_cast<int>(rng.index(30));
      for (int i = 0; i < len; ++i) {
        const auto& nbrs = topo.neighbors(cur);
        const ProcId next = nbrs[rng.index(nbrs.size())];
        walk.push_back(topo.link_between(cur, next));
        cur = next;
      }
      std::vector<LinkId> fast = walk;
      std::vector<LinkId> slow = walk;
      prune_link_walk(topo, fast, origin);
      prune_walk_reference(topo, slow, origin);
      ASSERT_EQ(fast, slow) << "procs=" << procs << " iter=" << iter;
      // The pruned walk must be loop-free: no processor revisited.
      std::vector<int> seen(static_cast<std::size_t>(procs), 0);
      ProcId p = origin;
      seen[static_cast<std::size_t>(p)] = 1;
      for (const LinkId l : fast) {
        p = topo.opposite(l, p);
        ASSERT_EQ(seen[static_cast<std::size_t>(p)], 0);
        seen[static_cast<std::size_t>(p)] = 1;
      }
    }
  }
}

TEST(BsaSmall, HeterogeneityExploitedOnClique) {
  // Fast processor P2 for everything; with cheap communication BSA should
  // shift the chain towards it.
  graph::TaskGraphBuilder b;
  const TaskId a = b.add_task(100);
  const TaskId c = b.add_task(100);
  const TaskId d = b.add_task(100);
  (void)b.add_edge(a, c, 1);
  (void)b.add_edge(c, d, 1);
  const auto g = b.build();
  const auto topo = net::Topology::clique(3);
  // P2 runs everything in 10; others in 100.
  std::vector<Cost> matrix{100, 100, 10, 100, 100, 10, 100, 100, 10};
  const auto cm =
      net::HeterogeneousCostModel::from_exec_matrix(g, topo, matrix);
  const auto result = schedule_bsa(g, topo, cm);
  // Pivot selection alone puts the whole chain on P2: length 30.
  EXPECT_DOUBLE_EQ(result.schedule_length(), 30);
  EXPECT_EQ(result.schedule.proc_of(a), 2);
  EXPECT_EQ(result.schedule.proc_of(d), 2);
}

}  // namespace
}  // namespace bsa::core
