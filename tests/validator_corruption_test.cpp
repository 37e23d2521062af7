#include <gtest/gtest.h>

#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/bsa.hpp"
#include "sched/validate.hpp"
#include "workloads/random_dag.hpp"

namespace bsa::sched {
namespace {

/// Failure injection: take a valid BSA schedule and corrupt it in a
/// targeted way; the validator must flag every corruption kind. This
/// guards the guard — a validator with a blind spot would silently bless
/// broken schedulers.

enum class Corruption : int {
  kShiftTaskEarlier = 0,    // precedence / arrival violation
  kShiftTaskLater,          // processor overlap with successor-in-order
  kStretchTask,             // duration != actual cost
  kShiftHopEarlier,         // hop before data available / link overlap
  kShrinkHop,               // hop duration != comm cost
  kCount,
};

/// Applies the corruption in place; returns false when the instance has
/// no applicable site.
bool corrupt(Corruption kind, const graph::TaskGraph& g,
             const net::Topology& topo, Schedule& s, Rng& rng) {
  switch (kind) {
    case Corruption::kShiftTaskEarlier: {
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        if (g.in_degree(t) == 0) continue;
        if (s.start_of(t) <= 0.5) continue;
        // Only a violation if the task currently starts exactly at one
        // of its constraints; shifting by 1 below the max arrival breaks
        // precedence whenever start == DRT.
        Time drt = 0;
        for (const EdgeId e : g.in_edges(t)) {
          drt = std::max(drt, s.arrival_of(e));
        }
        if (s.start_of(t) != drt) continue;
        s.set_task_times(t, s.start_of(t) - 1, s.finish_of(t) - 1);
        return true;
      }
      return false;
    }
    case Corruption::kShiftTaskLater: {
      for (ProcId p = 0; p < topo.num_processors(); ++p) {
        const auto& order = s.tasks_on(p);
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
          const TaskId a = order[i];
          const TaskId b = order[i + 1];
          if (s.finish_of(a) == s.start_of(b)) {
            s.set_task_times(a, s.start_of(a) + 1, s.finish_of(a) + 1);
            return true;
          }
        }
      }
      return false;
    }
    case Corruption::kStretchTask: {
      const auto t = static_cast<TaskId>(
          rng.index(static_cast<std::size_t>(g.num_tasks())));
      s.set_task_times(t, s.start_of(t), s.finish_of(t) + 3);
      return true;
    }
    case Corruption::kShiftHopEarlier: {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const auto& route = s.route_of(e);
        if (route.empty()) continue;
        const Hop& h = route[0];
        // Breaking requires start == source finish (data availability).
        if (h.start != s.finish_of(g.edge_src(e))) continue;
        if (h.start <= 0.5) continue;
        s.set_hop_times(e, 0, h.start - 1, h.finish - 1);
        return true;
      }
      return false;
    }
    case Corruption::kShrinkHop: {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const auto& route = s.route_of(e);
        if (route.empty()) continue;
        const Hop& h = route.back();
        if (h.finish - h.start <= 1.5) continue;
        s.set_hop_times(e, static_cast<int>(route.size()) - 1, h.start,
                        h.finish - 1);
        return true;
      }
      return false;
    }
    case Corruption::kCount:
      break;
  }
  return false;
}

class FailureInjection
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(FailureInjection, ValidatorCatchesCorruption) {
  const auto [kind_int, seed] = GetParam();
  const auto kind = static_cast<Corruption>(kind_int);

  workloads::RandomDagParams params;
  params.num_tasks = 40;
  params.granularity = 0.5;
  params.seed = seed;
  const auto g = workloads::random_layered_dag(params);
  const net::Topology topo = net::Topology::hypercube(3);
  const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
      g, topo, 1, 10, 1, 10, derive_seed(seed, 4));
  auto result = core::schedule_bsa(g, topo, cm);
  ASSERT_TRUE(validate(result.schedule, cm).ok());

  Rng rng(derive_seed(seed, 9));
  if (!corrupt(kind, g, topo, result.schedule, rng)) {
    GTEST_SKIP() << "corruption not applicable to this instance";
  }
  const auto report = validate(result.schedule, cm);
  EXPECT_FALSE(report.ok())
      << "validator missed corruption kind " << kind_int;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FailureInjection,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(Corruption::kCount)),
        ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace bsa::sched
