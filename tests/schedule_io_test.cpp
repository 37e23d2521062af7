#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
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

std::string streamed(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Whether all of `text` parses to `v` (NaN to a NaN).
bool reads_back(const std::string& text, double v) {
  double back = 0;
  const char* const end = text.data() + text.size();
  return std::from_chars(text.data(), end, back).ptr == end &&
         (back == v || (std::isnan(back) && std::isnan(v)));
}

/// The shortest text that reads back to `v`.
std::string shortest(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// A time as the text format must print it: as the stream does under
/// default flags (printf's %.6g) when that reads back to it, else in
/// its shortest round-trip form.
std::string exact_streamed(double v) {
  const std::string text = streamed(v);
  return reads_back(text, v) ? text : shortest(v);
}

// The text format written field by field through std::ostream, with each
// time through `time_text`: under exact_streamed, schedule_to_text must
// match it byte for byte (export files, served payloads and the
// conformance digests all hash those bytes).
template <class TimeText>
std::string reference_schedule_text(const Schedule& s, TimeText time_text) {
  std::ostringstream os;
  const auto& g = s.task_graph();
  std::size_t hops = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) hops += s.route_of(e).size();
  os << "# schedule: " << s.num_placed() << " tasks, " << hops << " hops\n";
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_placed(t)) continue;
    os << "task " << t << ' ' << s.proc_of(t) << ' '
       << time_text(s.start_of(t)) << ' ' << time_text(s.finish_of(t))
       << '\n';
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const Hop& h : s.route_of(e)) {
      os << "hop " << e << ' ' << h.link << ' ' << time_text(h.start) << ' '
         << time_text(h.finish) << '\n';
    }
  }
  return os.str();
}

std::string reference_schedule_text(const Schedule& s) {
  return reference_schedule_text(s, exact_streamed);
}

/// Empty when `b` holds exactly the placements, routes and times of `a`
/// (the text format does not carry the order of equal-time ties).
std::string exact_difference(const Schedule& a, const Schedule& b) {
  const auto& g = a.task_graph();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (a.is_placed(t) != b.is_placed(t) ||
        (a.is_placed(t) &&
         (a.proc_of(t) != b.proc_of(t) || a.start_of(t) != b.start_of(t) ||
          a.finish_of(t) != b.finish_of(t)))) {
      return "task " + std::to_string(t);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& x = a.route_of(e);
    const auto& y = b.route_of(e);
    bool same = x.size() == y.size();
    for (std::size_t k = 0; same && k < x.size(); ++k) {
      same = x[k].link == y[k].link && x[k].start == y[k].start &&
             x[k].finish == y[k].finish;
    }
    if (!same) return "message " + std::to_string(e);
  }
  return {};
}

std::string formatted(double v) {
  char buf[24];
  return std::string(buf, format_time(buf, buf + sizeof buf, v));
}

TEST(TimeText, FormatsLikeTheStreamWhereThatIsExact) {
  std::mt19937_64 rng(20240611);
  int lossy = 0;  // values whose %.6g text does not read back
  const auto check = [&lossy](double v) {
    const std::string text = formatted(v);
    ASSERT_EQ(text, exact_streamed(v)) << std::hexfloat << v;
    ASSERT_TRUE(reads_back(text, v)) << std::hexfloat << v;
    lossy += text != streamed(v);
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
                         0.0001234565, 1e6, 1095999.5, 0.5, 2.5, 0.1 + 0.2}) {
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
  check(std::numeric_limits<double>::lowest());
  check(std::numeric_limits<double>::infinity());
  check(-std::numeric_limits<double>::infinity());
  EXPECT_GT(lossy, 100000);
}

TEST(TimeText, KeepsTheStreamBytesOfExactTimes) {
  // Integral times below 1e6 and short decimals: today's bytes.
  EXPECT_EQ(formatted(100000), "100000");
  EXPECT_EQ(formatted(999999), "999999");
  EXPECT_EQ(formatted(43.8), "43.8");
  EXPECT_EQ(formatted(1096020), "1.09602e+06");
  EXPECT_EQ(formatted(-0.0), "-0");
  // Lossy under %.6g: the shortest exact form instead.
  EXPECT_EQ(formatted(1095999.5), "1095999.5");
  EXPECT_EQ(formatted(1095997), "1095997");
  EXPECT_EQ(formatted(0.1 + 0.2), "0.30000000000000004");
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
        const SchedulerResult r = registry.resolve(spec)->run(g, topo, cm, 3);
        const std::string where = spec + " on " + topo_kind + ", " +
                                  std::to_string(g.num_tasks()) + " tasks";
        const std::string text = schedule_to_text(r.schedule);
        EXPECT_EQ(text, reference_schedule_text(r.schedule)) << where;
        EXPECT_EQ(exact_difference(r.schedule,
                                   schedule_from_text(text, g, topo)),
                  "")
            << where;
        ++compared;
        if (decimal) ++decimal_compared;
      }
    }
  }
  EXPECT_EQ(compared, 42);
  EXPECT_EQ(decimal_compared, 14);
}

TEST(ScheduleText, ReadsBackExponentTimesBitIdentically) {
  // Communication-bound and heterogeneous enough that DLS's times pass
  // 1e6, where %.6g switches to exponent notation ("1.09602e+06") and
  // loses the digits past the sixth: those times print in full, and the
  // export reads back to the same schedule.
  const graph::TaskGraph g = workloads::WorkloadRegistry::global()
                                 .resolve("random")
                                 ->generate(500, 0.01, 1);
  const net::Topology topo = exp::make_topology("ring", 16, 1);
  const auto cm = exp::make_cost_model(g, topo, 1, 50, 1, 4, false, 1);
  const SchedulerResult r =
      SchedulerRegistry::global().resolve("dls")->run(g, topo, cm, 1);
  const std::string text = schedule_to_text(r.schedule);
  EXPECT_NE(text.find("e+06"), std::string::npos);
  EXPECT_NE(text, reference_schedule_text(r.schedule, streamed));
  EXPECT_EQ(text, reference_schedule_text(r.schedule));
  EXPECT_EQ(exact_difference(r.schedule, schedule_from_text(text, g, topo)),
            "");
  std::ostringstream os;
  write_schedule_text(os, r.schedule);
  EXPECT_EQ(os.str(), text);
}

}  // namespace
}  // namespace bsa::sched
