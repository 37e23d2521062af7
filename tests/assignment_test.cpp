#include <gtest/gtest.h>

#include <tuple>

#include "common/check.hpp"
#include "core/bsa.hpp"
#include "core/refine.hpp"
#include "paper_fixture.hpp"
#include "sched/assignment.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::sched {
namespace {

namespace pf = bsa::testing;

struct AssignmentTest : ::testing::Test {
  graph::TaskGraph g = pf::paper_task_graph();
  net::Topology topo = pf::paper_ring();
  net::HeterogeneousCostModel cm = pf::paper_cost_model(g, topo);
};

TEST_F(AssignmentTest, AllOnOneProcessorIsSerial) {
  std::vector<ProcId> assignment(9, 1);  // everything on P2
  const Schedule s = schedule_from_assignment(g, topo, cm, assignment);
  EXPECT_TRUE(validate(s, cm).ok());
  // Serial length = sum of exec costs on P2 = 238; list order may differ
  // from the BSA serialization but the total is identical.
  EXPECT_DOUBLE_EQ(s.makespan(), 238);
  EXPECT_EQ(compute_metrics(s, cm).num_crossing_messages, 0);
}

TEST_F(AssignmentTest, CrossingMessagesGetRoutes) {
  std::vector<ProcId> assignment(9, 1);
  assignment[static_cast<std::size_t>(pf::T3)] = 0;  // T3 on P1
  assignment[static_cast<std::size_t>(pf::T4)] = 2;  // T4 on P3
  const Schedule s = schedule_from_assignment(g, topo, cm, assignment);
  const auto report = validate(s, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
  // T1->T3 crosses P2->P1 (one hop), T3->T8 crosses back.
  EXPECT_FALSE(s.route_of(g.find_edge(pf::T1, pf::T3)).empty());
  EXPECT_FALSE(s.route_of(g.find_edge(pf::T3, pf::T8)).empty());
}

TEST_F(AssignmentTest, MultiHopRoutesOnRing) {
  std::vector<ProcId> assignment(9, 1);
  assignment[static_cast<std::size_t>(pf::T5)] = 3;  // P4: two hops from P2
  const Schedule s = schedule_from_assignment(g, topo, cm, assignment);
  EXPECT_TRUE(validate(s, cm).ok());
  EXPECT_EQ(s.route_of(g.find_edge(pf::T1, pf::T5)).size(), 2u);
}

TEST_F(AssignmentTest, RejectsBadInput) {
  std::vector<ProcId> wrong_size(5, 0);
  EXPECT_THROW((void)schedule_from_assignment(g, topo, cm, wrong_size),
               PreconditionError);
  std::vector<ProcId> bad_proc(9, 9);
  EXPECT_THROW((void)schedule_from_assignment(g, topo, cm, bad_proc),
               PreconditionError);
}

TEST_F(AssignmentTest, AssignmentOfRoundTrips) {
  const auto result = core::schedule_bsa(g, topo, cm);
  std::vector<ProcId> assignment;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    assignment.push_back(result.schedule.proc_of(t));
  }
  const Schedule rebuilt = schedule_from_assignment(g, topo, cm, assignment);
  EXPECT_TRUE(validate(rebuilt, cm).ok());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(rebuilt.proc_of(t), result.schedule.proc_of(t));
  }
}

class AssignmentProperty
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(AssignmentProperty, RandomAssignmentsAreSchedulable) {
  const auto [granularity, seed] = GetParam();
  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = granularity;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const auto topo = net::Topology::random(8, 2, 5, seed);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 20, 1, 20, derive_seed(seed, 2));
  Rng rng(derive_seed(seed, 30));
  std::vector<ProcId> assignment(static_cast<std::size_t>(g.num_tasks()));
  for (auto& p : assignment) {
    p = static_cast<ProcId>(rng.index(
        static_cast<std::size_t>(topo.num_processors())));
  }
  const Schedule s = schedule_from_assignment(g, topo, cm, assignment);
  const auto report = validate(s, cm);
  ASSERT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(s.makespan(), schedule_length_lower_bound(g, cm));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AssignmentProperty,
    ::testing::Combine(::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(1u, 2u)));

// --- refinement ---------------------------------------------------------------

TEST_F(AssignmentTest, RefineNeverWorsens) {
  const auto result = core::schedule_bsa(g, topo, cm);
  const auto refined = core::refine_schedule(result.schedule, cm);
  EXPECT_LE(refined.final_length, refined.initial_length);
  EXPECT_TRUE(validate(refined.schedule, cm).ok());
  EXPECT_DOUBLE_EQ(refined.schedule.makespan(), refined.final_length);
}

TEST_F(AssignmentTest, RefineImprovesBadAssignment) {
  // Start from everything on the slowest reasonable processor; local
  // search must find improvements.
  std::vector<ProcId> assignment(9, 3);  // P4 is slow for most tasks
  const Schedule start = schedule_from_assignment(g, topo, cm, assignment);
  const auto refined = core::refine_schedule(start, cm);
  EXPECT_LT(refined.final_length, start.makespan());
  EXPECT_GT(refined.moves_applied, 0);
  EXPECT_TRUE(validate(refined.schedule, cm).ok());
}

TEST_F(AssignmentTest, RefineCandidateLimitRespected) {
  const auto result = core::schedule_bsa(g, topo, cm);
  core::RefineOptions opt;
  opt.max_rounds = 1;
  opt.candidates_per_task = 2;
  const auto refined = core::refine_schedule(result.schedule, cm, opt);
  // At most (candidates-1 non-original) * tasks evaluations, bounded by
  // candidates*tasks regardless.
  EXPECT_LE(refined.candidates_evaluated, 2 * g.num_tasks());
  EXPECT_TRUE(validate(refined.schedule, cm).ok());
}

TEST_F(AssignmentTest, RefineRequiresCompleteSchedule) {
  Schedule s(g, topo);
  s.place_task(pf::T1, 0, 0, 39);
  EXPECT_THROW((void)core::refine_schedule(s, cm), PreconditionError);
}

}  // namespace
}  // namespace bsa::sched
