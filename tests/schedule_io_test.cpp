#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/bsa.hpp"
#include "exp/experiment.hpp"
#include "graph/task_graph.hpp"
#include "paper_fixture.hpp"
#include "sched/schedule_io.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "workloads/workload_registry.hpp"

namespace bsa::sched {
namespace {

namespace pf = bsa::testing;

struct ScheduleIoTest : ::testing::Test {
  graph::TaskGraph g = pf::paper_task_graph();
  net::Topology topo = pf::paper_ring();
  net::HeterogeneousCostModel cm = pf::paper_cost_model(g, topo);
};

TEST_F(ScheduleIoTest, RoundTripBsaSchedule) {
  const auto result = core::schedule_bsa(g, topo, cm);
  const Schedule restored =
      schedule_from_text(schedule_to_text(result.schedule), g, topo);
  ASSERT_TRUE(restored.all_placed());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(restored.proc_of(t), result.schedule.proc_of(t));
    EXPECT_DOUBLE_EQ(restored.start_of(t), result.schedule.start_of(t));
    EXPECT_DOUBLE_EQ(restored.finish_of(t), result.schedule.finish_of(t));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& a = result.schedule.route_of(e);
    const auto& b = restored.route_of(e);
    ASSERT_EQ(a.size(), b.size()) << "message " << e;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].link, b[k].link);
      EXPECT_DOUBLE_EQ(a[k].start, b[k].start);
    }
  }
  EXPECT_TRUE(validate(restored, cm).ok());
}

TEST_F(ScheduleIoTest, PartialScheduleSerialises) {
  Schedule s(g, topo);
  s.place_task(pf::T1, 0, 0, 39);
  const Schedule restored = schedule_from_text(schedule_to_text(s), g, topo);
  EXPECT_EQ(restored.num_placed(), 1);
  EXPECT_DOUBLE_EQ(restored.finish_of(pf::T1), 39);
}

TEST_F(ScheduleIoTest, RejectsMalformedInput) {
  EXPECT_THROW((void)schedule_from_text("task 0\n", g, topo),
               PreconditionError);
  EXPECT_THROW((void)schedule_from_text("bogus 1 2 3 4\n", g, topo),
               PreconditionError);
  EXPECT_THROW((void)schedule_from_text("task 99 0 0 1\n", g, topo),
               PreconditionError);
  EXPECT_THROW((void)schedule_from_text("hop 0 99 0 1\n", g, topo),
               PreconditionError);
}

TEST_F(ScheduleIoTest, CsvContainsAllEvents) {
  const auto result = core::schedule_bsa(g, topo, cm);
  std::ostringstream os;
  write_schedule_csv(os, result.schedule);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,who,where,start,finish"), std::string::npos);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_NE(csv.find("task," + g.task_name(t) + ","), std::string::npos);
  }
  // At least one hop row for a crossing message.
  EXPECT_NE(csv.find("hop,"), std::string::npos);
}

TEST_F(ScheduleIoTest, DotShowsAssignments) {
  const auto result = core::schedule_bsa(g, topo, cm);
  std::ostringstream os;
  write_schedule_dot(os, result.schedule, "demo");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
  EXPECT_NE(dot.find("T1"), std::string::npos);
  // Unplaced tasks render grey.
  Schedule partial(g, topo);
  partial.place_task(pf::T1, 0, 0, 39);
  std::ostringstream os2;
  write_schedule_dot(os2, partial);
  EXPECT_NE(os2.str().find("(unplaced)"), std::string::npos);
}

// The text format written field by field through std::ostream under
// default flags: the reference schedule_to_text must match byte for byte
// (export files, served payloads and the conformance digests all hash
// those bytes).
std::string reference_schedule_text(const Schedule& s) {
  std::ostringstream os;
  const auto& g = s.task_graph();
  std::size_t hops = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) hops += s.route_of(e).size();
  os << "# schedule: " << s.num_placed() << " tasks, " << hops << " hops\n";
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_placed(t)) continue;
    os << "task " << t << ' ' << s.proc_of(t) << ' ' << s.start_of(t) << ' '
       << s.finish_of(t) << '\n';
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const Hop& h : s.route_of(e)) {
      os << "hop " << e << ' ' << h.link << ' ' << h.start << ' ' << h.finish
         << '\n';
    }
  }
  return os.str();
}

std::string streamed(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string formatted(double v) {
  char buf[16];
  return std::string(buf, format_time(buf, buf + sizeof buf, v));
}

TEST(TimeText, FormatsLikeTheStream) {
  std::mt19937_64 rng(20240611);
  const auto check = [](double v) {
    ASSERT_EQ(formatted(v), streamed(v)) << std::hexfloat << v;
  };
  // Random bit patterns: every class, subnormals, infinities and NaNs
  // included.
  for (int i = 0; i < 300000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    check(v);
  }
  // Integers up to 2^53, log-uniform so every exponent is covered, and
  // one-decimal values.
  for (int i = 0; i < 300000; ++i) {
    const auto width = static_cast<int>(rng() % 54);
    const std::uint64_t n = width == 0 ? 0 : rng() >> (64 - width);
    check(static_cast<double>(n));
    check(static_cast<double>(n % 100000000) / 10);
  }
  check(9007199254740992.0);
  // Rounding and notation boundaries of %.6g.
  for (const double v : {999999.5, 999999.4, 9999995.0, 1e-5, 1e-4,
                         0.0001234565, 1e6, 1095999.5, 0.5, 2.5}) {
    check(v);
    check(-v);
  }
  check(0.0);
  check(-0.0);
  check(std::numeric_limits<double>::denorm_min());
  check(std::numeric_limits<double>::min());
  check(std::numeric_limits<double>::min() / 3);
  check(-std::numeric_limits<double>::denorm_min());
  check(std::numeric_limits<double>::max());
  check(std::numeric_limits<double>::infinity());
  check(-std::numeric_limits<double>::infinity());
}

/// A DAG of `n` tasks with one-decimal costs where every third task and
/// every third edge costs zero (zero-length intervals and fractional
/// times).
graph::TaskGraph zero_cost_decimal_graph(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  graph::TaskGraphBuilder b;
  for (int i = 0; i < n; ++i) {
    (void)b.add_task(i % 3 == 1 ? 0 : static_cast<double>(rng() % 97 + 1) / 10);
  }
  int k = 0;
  const auto add_edge = [&](TaskId src, TaskId dst) {
    const double cost = static_cast<double>(rng() % 61 + 1) / 10;
    (void)b.add_edge(src, dst, k++ % 3 == 0 ? 0 : cost);
  };
  const auto below = [&](TaskId j) {
    return static_cast<TaskId>(rng() % static_cast<std::uint64_t>(j));
  };
  for (TaskId j = 1; j < n; ++j) {
    const TaskId first = below(j);
    const TaskId second = below(j);
    add_edge(first, j);
    if (second != first) add_edge(second, j);
  }
  return b.build();
}

TEST(ScheduleText, MatchesTheStreamWriterOnEveryScheduler) {
  const auto& registry = SchedulerRegistry::global();
  std::vector<graph::TaskGraph> graphs;
  for (const char* workload : {"random", "gauss"}) {
    graphs.push_back(
        workloads::WorkloadRegistry::global().resolve(workload)->generate(
            40, 1.0, 3));
  }
  graphs.push_back(zero_cost_decimal_graph(40, 3));
  int compared = 0;
  int decimal_compared = 0;
  for (const std::string& spec : registry.names()) {
    for (const auto& g : graphs) {
      const bool decimal = &g == &graphs.back();
      for (const char* topo_kind : {"ring", "hypercube"}) {
        const net::Topology topo = exp::make_topology(topo_kind, 8, 3);
        const auto cm = exp::make_cost_model(g, topo, 1, 4, 1, 2, false, 3);
        try {
          const SchedulerResult r = registry.resolve(spec)->run(g, topo, cm, 3);
          EXPECT_EQ(schedule_to_text(r.schedule),
                    reference_schedule_text(r.schedule))
              << spec << " on " << topo_kind << ", " << g.num_tasks()
              << " tasks";
        } catch (const InvariantError& e) {
          // One-decimal zero-cost graphs hit the absolute tolerance's
          // known overlap defect in some schedulers; such a run leaves no
          // schedule to compare. No other graph may fail.
          ASSERT_TRUE(decimal) << spec << ": " << e.what();
          continue;
        }
        ++compared;
        if (decimal) ++decimal_compared;
      }
    }
  }
  EXPECT_GE(compared, 41);
  EXPECT_GE(decimal_compared, 13);
}

TEST(ScheduleText, MatchesTheStreamWriterOnExponentTimes) {
  // Communication-bound and heterogeneous enough that DLS's times pass
  // 1e6, where %.6g switches to exponent notation ("1.09602e+06").
  const graph::TaskGraph g = workloads::WorkloadRegistry::global()
                                 .resolve("random")
                                 ->generate(500, 0.01, 1);
  const net::Topology topo = exp::make_topology("ring", 16, 1);
  const auto cm = exp::make_cost_model(g, topo, 1, 50, 1, 4, false, 1);
  const SchedulerResult r =
      SchedulerRegistry::global().resolve("dls")->run(g, topo, cm, 1);
  const std::string text = schedule_to_text(r.schedule);
  EXPECT_NE(text.find("e+06"), std::string::npos);
  EXPECT_EQ(text, reference_schedule_text(r.schedule));
  std::ostringstream os;
  write_schedule_text(os, r.schedule);
  EXPECT_EQ(os.str(), text);
}

}  // namespace
}  // namespace bsa::sched
