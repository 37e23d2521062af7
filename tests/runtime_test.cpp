#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exp/experiment.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads/workload_registry.hpp"

namespace bsa::runtime {
namespace {

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 7,
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, 16, [](std::size_t) { FAIL() << "body ran"; });
  pool.wait();
}

TEST(ThreadPool, OversubscribedManyMoreChunksThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(5000, 1, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 5000L * 4999 / 2);
}

TEST(ThreadPool, StartupShutdownWithNoWork) {
  for (int threads : {1, 2, 16}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    pool.wait();  // nothing in flight
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), default_thread_count());
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 4,
                        [](std::size_t i) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(10, 2, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RejectsZeroChunk) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(5, 0, [](std::size_t) {}),
               PreconditionError);
}

// --- scenario enumeration ---------------------------------------------------

ScenarioGrid small_grid() {
  ScenarioGrid grid;
  grid.workloads = {"random"};
  grid.sizes = {20, 30};
  grid.granularities = {0.1, 1.0};
  grid.topologies = {"ring", "clique"};
  grid.algos = {"dls", "bsa"};
  grid.procs = 4;
  grid.seeds_per_cell = 2;
  grid.base_seed = 7;
  return grid;
}

TEST(ScenarioSet, EnumeratesTheFullCrossProduct) {
  const ScenarioSet set = ScenarioSet::from_grid(small_grid());
  // 2 topologies x 1 range x 2 sizes x 2 granularities x 2 reps x 2 algos.
  EXPECT_EQ(set.size(), 32u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set[i].index, i);
  }
}

TEST(ScenarioSet, InstanceSeedsIgnoreAlgoTopologyAndRange) {
  ScenarioGrid grid = small_grid();
  grid.het_highs = {10, 100};
  const ScenarioSet set = ScenarioSet::from_grid(grid);
  // Group by cell coordinates; every (topology, range, algo) combination
  // of a cell must share the instance seed.
  for (const ScenarioSpec& a : set) {
    for (const ScenarioSpec& b : set) {
      if (a.size == b.size && a.granularity == b.granularity &&
          a.workload == b.workload && a.rep == b.rep) {
        EXPECT_EQ(a.instance_seed, b.instance_seed);
      }
    }
  }
}

TEST(ScenarioSet, RegularSuiteEnumeratesThreeApps) {
  ScenarioGrid grid = small_grid();
  grid.workloads = {"gauss", "lu", "laplace"};
  grid.sizes = {30};
  grid.granularities = {1.0};
  grid.topologies = {"ring"};
  grid.algos = {"bsa"};
  grid.seeds_per_cell = 1;
  const ScenarioSet set = ScenarioSet::from_grid(grid);
  EXPECT_EQ(set.size(), 3u);
}

TEST(ScenarioSet, RejectsEmptyAxes) {
  ScenarioGrid grid = small_grid();
  grid.algos.clear();
  EXPECT_THROW((void)ScenarioSet::from_grid(grid), PreconditionError);
}

TEST(ScenarioSet, LegacySeedModeDerivesFromReplicateOnly) {
  ScenarioGrid grid = small_grid();
  grid.sizes = {20};
  grid.granularities = {1.0};
  grid.seed_mode = SeedMode::kLegacySequential;
  const ScenarioSet set = ScenarioSet::from_grid(grid);
  for (const ScenarioSpec& s : set) {
    EXPECT_EQ(s.instance_seed,
              derive_seed(grid.base_seed, static_cast<std::uint64_t>(s.rep)));
  }
  // Grid mode must differ (this is what silently shifted fig7 once).
  ScenarioGrid coord = grid;
  coord.seed_mode = SeedMode::kGridCoordinates;
  const ScenarioSet grid_set = ScenarioSet::from_grid(coord);
  EXPECT_NE(grid_set[0].instance_seed, set[0].instance_seed);
  EXPECT_STREQ(seed_mode_name(SeedMode::kLegacySequential), "legacy");
  EXPECT_STREQ(seed_mode_name(SeedMode::kGridCoordinates), "grid");
}

TEST(ScenarioSet, LegacySeedModeRejectsMultiCellAxes) {
  // Legacy seeds would silently correlate cells that differ only in
  // size, granularity or app; from_grid must refuse.
  ScenarioGrid grid = small_grid();  // two sizes, two granularities
  grid.seed_mode = SeedMode::kLegacySequential;
  EXPECT_THROW((void)ScenarioSet::from_grid(grid), PreconditionError);
  ScenarioGrid apps = small_grid();
  apps.sizes = {20};
  apps.granularities = {1.0};
  apps.workloads = {"gauss", "lu", "laplace"};  // three paper apps
  apps.seed_mode = SeedMode::kLegacySequential;
  EXPECT_THROW((void)ScenarioSet::from_grid(apps), PreconditionError);
}

/// Figure 7 seed-compatibility regression: a legacy-mode grid sweep must
/// reproduce, number for number, the pre-runtime serial fig7 driver
/// (ten-graphs loop with derive_seed(base_seed, i) instance seeds).
TEST(ScenarioSet, LegacySeedModeReproducesSerialFig7Driver) {
  const std::uint64_t base_seed = 2026;
  const int num_graphs = 2;
  const int num_tasks = 25;
  const std::vector<int> ranges{10, 50};

  ScenarioGrid grid;
  grid.workloads = {"random"};
  grid.sizes = {num_tasks};
  grid.granularities = {1.0};
  grid.topologies = {"hypercube"};
  grid.algos = {"dls", "bsa"};
  grid.procs = 16;
  grid.het_highs = ranges;
  grid.seeds_per_cell = num_graphs;
  grid.base_seed = base_seed;
  grid.seed_mode = SeedMode::kLegacySequential;
  const ScenarioSet set = ScenarioSet::from_grid(grid);
  const auto results = SweepRunner({.threads = 1}).run(set);

  // The serial driver, replicated verbatim.
  const auto topo = exp::make_topology("hypercube", 16, base_seed);
  std::size_t cursor = 0;
  for (const int hi : ranges) {
    for (int i = 0; i < num_graphs; ++i) {
      const std::uint64_t seed =
          derive_seed(base_seed, static_cast<std::uint64_t>(i));
      const auto g = workloads::WorkloadRegistry::global()
                         .resolve("random")
                         ->generate(num_tasks, 1.0, seed);
      const auto cm = exp::make_cost_model(g, topo, 1, hi, 1, hi, false,
                                           derive_seed(seed, 17));
      const Time dls =
          exp::run_algorithm("dls", g, topo, cm, seed).schedule_length;
      const Time bsa =
          exp::run_algorithm("bsa", g, topo, cm, seed).schedule_length;
      // Enumeration order within a cell is (rep, algo) with DLS first.
      ASSERT_LT(cursor + 1, results.size());
      EXPECT_EQ(results[cursor].spec.algo, "dls");
      EXPECT_EQ(results[cursor].spec.het_hi, hi);
      EXPECT_EQ(results[cursor].schedule_length, dls)
          << "hi=" << hi << " rep=" << i;
      EXPECT_EQ(results[cursor + 1].spec.algo, "bsa");
      EXPECT_EQ(results[cursor + 1].schedule_length, bsa)
          << "hi=" << hi << " rep=" << i;
      cursor += 2;
    }
  }
  EXPECT_EQ(cursor, results.size());
}

// --- sweep determinism ------------------------------------------------------

std::vector<double> lengths_of(const std::vector<ScenarioResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const auto& r : results) {
    out.push_back(static_cast<double>(r.schedule_length));
  }
  return out;
}

TEST(SweepRunner, ResultsAreBitIdenticalAtAnyThreadCount) {
  const ScenarioSet set = ScenarioSet::from_grid(small_grid());
  const auto serial = SweepRunner({.threads = 1}).run(set);
  ASSERT_EQ(serial.size(), set.size());
  for (const auto& r : serial) {
    EXPECT_TRUE(r.valid) << "scenario " << r.spec.index;
    EXPECT_GT(r.schedule_length, 0);
  }
  for (const int threads : {2, 8}) {
    const auto parallel = SweepRunner({.threads = threads}).run(set);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    EXPECT_EQ(lengths_of(parallel), lengths_of(serial))
        << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].spec.index, i);
      EXPECT_EQ(parallel[i].valid, serial[i].valid);
    }
  }
}

TEST(SweepRunner, JsonlOutputIsByteIdenticalModuloTimings) {
  const ScenarioSet set = ScenarioSet::from_grid(small_grid());
  auto render = [&set](int threads) {
    std::ostringstream os;
    JsonlSink sink(os);
    (void)SweepRunner({.threads = threads}).run(set, &sink);
    // Blank out the only non-deterministic field.
    std::string text = os.str();
    std::string out;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      const auto at = line.find("\"wall_ms\":");
      const auto comma = line.find(',', at);
      out += line.substr(0, at) + line.substr(comma) + "\n";
    }
    return out;
  };
  const std::string serial = render(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(render(2), serial);
  EXPECT_EQ(render(8), serial);
}

TEST(SweepRunner, EmptySetYieldsNoResultsAndNoSinkRows) {
  // A grid cannot be empty by construction; exercise the runner's empty
  // path directly with a default ScenarioSet.
  const ScenarioSet set;
  std::ostringstream os;
  JsonlSink sink(os);
  const auto results = SweepRunner({.threads = 4}).run(set, &sink);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(sink.rows_written(), 0u);
  EXPECT_TRUE(os.str().empty());
}

// --- sinks ------------------------------------------------------------------

ScenarioResult sample_result() {
  ScenarioResult r;
  r.spec.index = 3;
  r.spec.workload = "random";
  r.spec.size = 120;
  r.spec.granularity = 0.1;
  r.spec.topology = "hypercube";
  r.spec.procs = 16;
  r.spec.het_lo = 1;
  r.spec.het_hi = 50;
  r.spec.link_het_lo = 1;
  r.spec.link_het_hi = 25;
  r.spec.per_pair = true;
  r.spec.algo = "bsa";
  r.spec.rep = 2;
  r.spec.instance_seed = 123456789;
  r.schedule_length = 6510.25;
  r.wall_ms = 1.5;
  r.valid = true;
  return r;
}

TEST(JsonlSink, RoundTripsEveryField) {
  const ScenarioResult r = sample_result();
  const auto row = parse_jsonl_row(to_jsonl(r));
  EXPECT_EQ(std::get<double>(row.at("index")), 3);
  EXPECT_EQ(std::get<std::string>(row.at("workload")), "random");
  EXPECT_EQ(std::get<double>(row.at("size")), 120);
  EXPECT_EQ(std::get<double>(row.at("granularity")), 0.1);
  EXPECT_EQ(std::get<std::string>(row.at("topology")), "hypercube");
  EXPECT_EQ(std::get<double>(row.at("procs")), 16);
  EXPECT_EQ(std::get<double>(row.at("het_hi")), 50);
  EXPECT_EQ(std::get<double>(row.at("link_het_hi")), 25);
  EXPECT_EQ(std::get<bool>(row.at("per_pair")), true);
  EXPECT_EQ(std::get<std::string>(row.at("algo")), "bsa");
  EXPECT_EQ(std::get<double>(row.at("rep")), 2);
  EXPECT_EQ(std::get<double>(row.at("seed")), 123456789);
  EXPECT_EQ(std::get<double>(row.at("schedule_length")), 6510.25);
  EXPECT_EQ(std::get<double>(row.at("wall_ms")), 1.5);
  EXPECT_EQ(std::get<bool>(row.at("valid")), true);
}

TEST(JsonlSink, StreamSinkWritesOneLinePerRow) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.consume(sample_result());
  sink.consume(sample_result());
  sink.flush();
  EXPECT_EQ(sink.rows_written(), 2u);
  std::istringstream lines(os.str());
  int parsed = 0;
  for (std::string line; std::getline(lines, line);) {
    EXPECT_NO_THROW((void)parse_jsonl_row(line));
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

TEST(JsonlSink, EscapesStringsAndRejectsMalformedRows) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  const auto row = parse_jsonl_row("{\"k\":\"a\\\"b\\nc\",\"n\":null}");
  EXPECT_EQ(std::get<std::string>(row.at("k")), "a\"b\nc");
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(row.at("n")));
  EXPECT_THROW((void)parse_jsonl_row("{\"k\":1"), PreconditionError);
  EXPECT_THROW((void)parse_jsonl_row("{\"k\":1} trailing"),
               PreconditionError);
  EXPECT_THROW((void)parse_jsonl_row("[1,2]"), PreconditionError);
  EXPECT_TRUE(parse_jsonl_row("{}").empty());
  EXPECT_THROW((void)parse_jsonl_row("{} trailing"), PreconditionError);
  // \u escapes: valid ASCII round-trips; malformed hex is rejected with
  // the documented error type, never silently misparsed.
  EXPECT_EQ(std::get<std::string>(
                parse_jsonl_row("{\"k\":\"\\u0041\"}").at("k")),
            "A");
  EXPECT_THROW((void)parse_jsonl_row("{\"k\":\"\\u00g1\"}"),
               PreconditionError);
  EXPECT_THROW((void)parse_jsonl_row("{\"k\":\"\\uzzzz\"}"),
               PreconditionError);
  EXPECT_THROW((void)parse_jsonl_row("{\"k\":\"\\u00e9\"}"),
               PreconditionError);  // non-ASCII unsupported
}

TEST(JsonlSink, ControlCharactersNeverCorruptALine) {
  // Every control character must escape into a single-line, parseable
  // representation and round-trip exactly.
  for (int c = 0; c < 0x20; ++c) {
    const std::string raw{'x', static_cast<char>(c), 'y'};
    const std::string escaped = json_escape(raw);
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << "char " << c;
    EXPECT_EQ(escaped.find('\r'), std::string::npos) << "char " << c;
    const auto row = parse_jsonl_row("{\"k\":\"" + escaped + "\"}");
    EXPECT_EQ(std::get<std::string>(row.at("k")), raw) << "char " << c;
  }
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape("\n\t\r"), "\\n\\t\\r");
}

TEST(JsonlSink, HostileTopologyNameRoundTripsThroughARow) {
  ScenarioResult r = sample_result();
  r.spec.topology = "evil\"\\\n\t\x01\x1fname";
  const std::string line = to_jsonl(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // still one JSONL line
  const auto row = parse_jsonl_row(line);
  EXPECT_EQ(std::get<std::string>(row.at("topology")), r.spec.topology);
}

TEST(JsonlSink, AppendModeAccretesAcrossSinks) {
  const std::string path = testing::TempDir() + "/bsa_jsonl_append.jsonl";
  {
    JsonlSink sink(path);  // truncating open resets any previous content
    sink.consume(sample_result());
    sink.flush();
  }
  {
    JsonlSink sink(path, /*append=*/true);
    sink.consume(sample_result());
    sink.flush();
  }
  std::ifstream in(path);
  int lines = 0;
  for (std::string line; std::getline(in, line);) {
    EXPECT_NO_THROW((void)parse_jsonl_row(line));
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

TEST(JsonNumber, FormatsIntegersCleanlyAndRoundTripsDoubles) {
  EXPECT_EQ(json_number(42), "42");
  EXPECT_EQ(json_number(-3), "-3");
  const double v = 0.1 + 0.2;
  const auto row = parse_jsonl_row("{\"v\":" + json_number(v) + "}");
  EXPECT_EQ(std::get<double>(row.at("v")), v);
  // JSON has no inf/nan literals; non-finite metrics (e.g. the
  // granularity of an edge-free graph) must not corrupt the line.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json_number(inf), "null");
  EXPECT_EQ(json_number(-inf), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
  ScenarioResult r = sample_result();
  r.spec.granularity = inf;
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
      parse_jsonl_row(to_jsonl(r)).at("granularity")));
}

TEST(Sinks, CollectingAndTeeFanOut) {
  CollectingSink a, b;
  TeeSink tee({&a, &b});
  tee.consume(sample_result());
  tee.flush();
  ASSERT_EQ(a.rows().size(), 1u);
  ASSERT_EQ(b.rows().size(), 1u);
  EXPECT_EQ(a.rows()[0].spec.index, 3u);
}

TEST(BenchJson, WritesParseableReport) {
  std::ostringstream os;
  write_bench_json(os, "runtime", 4,
                   {{"BSA/ring/100", 3, 12.5, 6510.0},
                    {"DLS/ring/100", 3, 11.0, 7000.0}});
  const std::string text = os.str();
  EXPECT_NE(text.find("\"bench\":\"runtime\""), std::string::npos);
  EXPECT_NE(text.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(text.find("\"label\":\"BSA/ring/100\""), std::string::npos);
  EXPECT_NE(text.find("\"mean_wall_ms\":12.5"), std::string::npos);
}

}  // namespace
}  // namespace bsa::runtime
