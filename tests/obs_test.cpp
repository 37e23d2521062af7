#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "exp/experiment.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/hooks.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/schedule_io.hpp"
#include "sched/scheduler.hpp"

namespace bsa::obs {
namespace {

// --- counter registry -------------------------------------------------------

TEST(Counters, RegistryInternsAndSnapshotsSortedByName) {
  Registry reg;
  Counter b = reg.counter("beta");
  Counter a = reg.counter("alpha");
  b.add(3);
  a.increment();
  a.increment();
  reg.add("gamma", 7);
  const CounterSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Sorted by name regardless of interning order.
  EXPECT_EQ(snap[0], (std::pair<std::string, std::int64_t>{"alpha", 2}));
  EXPECT_EQ(snap[1], (std::pair<std::string, std::int64_t>{"beta", 3}));
  EXPECT_EQ(snap[2], (std::pair<std::string, std::int64_t>{"gamma", 7}));
}

TEST(Counters, InterningIsIdempotent) {
  Registry reg;
  Counter first = reg.counter("x");
  Counter second = reg.counter("x");
  first.add(2);
  second.add(5);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(first.value(), 7);
  EXPECT_EQ(reg.snapshot()[0].second, 7);
}

TEST(Counters, HandlesStayValidAfterManyInterns) {
  // Slot addresses must survive registry growth (deque, not vector).
  Registry reg;
  Counter early = reg.counter("early");
  for (int i = 0; i < 200; ++i) reg.add("filler" + std::to_string(i), 1);
  early.add(42);
  EXPECT_EQ(early.value(), 42);
  for (const auto& [name, value] : reg.snapshot()) {
    if (name == "early") {
      EXPECT_EQ(value, 42);
    }
  }
}

TEST(Counters, EmptyHandleIgnoresEverything) {
  Counter c;
  c.add(5);
  c.increment();
  c.set(9);
  EXPECT_EQ(c.value(), 0);
}

TEST(Counters, MergeSumsAndResetZeroesKeepingHandles) {
  Registry reg;
  Counter a = reg.counter("a");
  a.add(10);
  reg.merge({{"a", 5}, {"b", 2}});
  EXPECT_EQ(a.value(), 15);
  EXPECT_EQ(reg.snapshot(),
            (CounterSnapshot{{"a", 15}, {"b", 2}}));
  reg.reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(a.value(), 0);
  a.increment();  // the handle is still wired to its slot
  EXPECT_EQ(reg.snapshot(), (CounterSnapshot{{"a", 1}, {"b", 0}}));
}

// --- tracer and spans -------------------------------------------------------

TEST(Trace, NullTracerSpanIsInert) {
  Span span(nullptr, "work", "test");
  span.arg("k", 1.0);
  span.close();  // must not crash, nothing to record into
}

TEST(Trace, SpanRecordsOneCompleteEventWithArgs) {
  Tracer tracer;
  {
    Span span(&tracer, "work", "test", 3);
    span.arg("index", 7.0);
  }
  ASSERT_EQ(tracer.event_count(), 1u);
  const TraceEvent e = tracer.sorted_events()[0];
  EXPECT_EQ(e.name, "work");
  EXPECT_EQ(e.cat, "test");
  EXPECT_EQ(e.ph, 'X');
  EXPECT_EQ(e.tid, 3u);
  EXPECT_GE(e.ts_us, 0.0);
  EXPECT_GE(e.dur_us, 0.0);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].first, "index");
  EXPECT_EQ(e.args[0].second, 7.0);
}

TEST(Trace, CloseIsIdempotent) {
  Tracer tracer;
  Span span(&tracer, "once", "test");
  span.close();
  span.close();
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Trace, SortedEventsAreMonotonicEvenWhenRecordedOutOfOrder) {
  Tracer tracer;
  tracer.add_complete("late", "test", 100.0, 1.0, 0);
  tracer.add_complete("early", "test", 5.0, 1.0, 0);
  tracer.add_complete("mid", "test", 50.0, 1.0, 0);
  const auto events = tracer.sorted_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "early");
  EXPECT_EQ(events[1].name, "mid");
  EXPECT_EQ(events[2].name, "late");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(Trace, ChromeTraceJsonHasMetadataFirstAndRequiredKeys) {
  Tracer tracer;
  tracer.set_thread_name(0, "main");
  tracer.add_complete("span", "test", 10.0, 2.0, 0, {{"n", 1.0}});
  tracer.add_instant("mark", "test", 0);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  const auto meta = json.find("\"ph\":\"M\"");
  const auto complete = json.find("\"ph\":\"X\"");
  const auto instant = json.find("\"ph\":\"i\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(complete, std::string::npos);
  ASSERT_NE(instant, std::string::npos);
  EXPECT_LT(meta, complete);  // thread_name metadata precedes spans
  EXPECT_NE(json.find("\"args\":{\"name\":\"main\"}"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

// --- decision log -----------------------------------------------------------

MigrationDecision sample_decision() {
  MigrationDecision d;
  d.sweep = 1;
  d.phase = 2;
  d.pivot = 3;
  d.task = 4;
  d.from = 0;
  d.to = 2;
  d.old_finish = 120.0;
  d.predicted_finish = 90.0;
  d.new_finish = 91.0;
  d.makespan_before = 500.0;
  d.makespan_after = 480.0;
  d.outcome = DecisionOutcome::kCommitted;
  return d;
}

TEST(DecisionLog, RowRoundTripsThroughParseJsonlRow) {
  const std::string line = decision_to_jsonl(sample_decision(), "bsa");
  const auto row = runtime::parse_jsonl_row(line);
  EXPECT_EQ(std::get<std::string>(row.at("event")), "migration");
  EXPECT_EQ(std::get<std::string>(row.at("algo")), "bsa");
  EXPECT_EQ(std::get<double>(row.at("sweep")), 1.0);
  EXPECT_EQ(std::get<double>(row.at("pivot")), 3.0);
  EXPECT_EQ(std::get<double>(row.at("task")), 4.0);
  EXPECT_EQ(std::get<double>(row.at("from")), 0.0);
  EXPECT_EQ(std::get<double>(row.at("to")), 2.0);
  EXPECT_EQ(std::get<double>(row.at("gain")), 30.0);
  EXPECT_EQ(std::get<double>(row.at("new_finish")), 91.0);
  EXPECT_EQ(std::get<std::string>(row.at("outcome")), "commit");
}

TEST(DecisionLog, NanFieldsSerialiseAsNull) {
  MigrationDecision d = sample_decision();
  d.to = -1;
  d.new_finish = std::nan("");
  d.makespan_before = std::nan("");
  d.makespan_after = std::nan("");
  d.outcome = DecisionOutcome::kRejectedNoGain;
  const auto row = runtime::parse_jsonl_row(decision_to_jsonl(d));
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(row.at("new_finish")));
  EXPECT_TRUE(
      std::holds_alternative<std::nullptr_t>(row.at("makespan_before")));
  EXPECT_EQ(std::get<std::string>(row.at("outcome")), "reject-no-gain");
  EXPECT_EQ(row.count("algo"), 0u);  // no label, no algo column
}

TEST(DecisionLog, OutcomeNamesAreStable) {
  EXPECT_STREQ(decision_outcome_name(DecisionOutcome::kCommitted), "commit");
  EXPECT_STREQ(decision_outcome_name(DecisionOutcome::kCommittedVip),
               "commit-vip");
  EXPECT_STREQ(decision_outcome_name(DecisionOutcome::kRejectedNoGain),
               "reject-no-gain");
  EXPECT_STREQ(decision_outcome_name(DecisionOutcome::kRejectedMakespanGuard),
               "reject-makespan-guard");
}

TEST(DecisionLog, JsonlSinkCountsRowsAndCollectorKeepsOrder) {
  std::ostringstream os;
  JsonlDecisionLog sink(os, "bsa");
  sink.record(sample_decision());
  sink.record(sample_decision());
  sink.flush();
  EXPECT_EQ(sink.rows_written(), 2u);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW((void)runtime::parse_jsonl_row(line));
    ++lines;
  }
  EXPECT_EQ(lines, 2u);

  CollectingDecisionLog collector;
  MigrationDecision d = sample_decision();
  collector.record(d);
  d.task = 9;
  collector.record(d);
  ASSERT_EQ(collector.decisions().size(), 2u);
  EXPECT_EQ(collector.decisions()[0].task, 4);
  EXPECT_EQ(collector.decisions()[1].task, 9);
}

// --- BSA decision stream ----------------------------------------------------

runtime::ScenarioSet bsa_set() {
  runtime::ScenarioGrid grid;
  grid.workloads = {"random"};
  grid.sizes = {25};
  grid.granularities = {0.1, 1.0};
  grid.topologies = {"ring"};
  grid.algos = {"bsa"};
  grid.procs = 4;
  grid.seeds_per_cell = 2;
  grid.base_seed = 11;
  return runtime::ScenarioSet::from_grid(grid);
}

TEST(ObsHooks, ObservedRunMatchesPlainRunExactly) {
  // Observability must observe, never influence: the same scenario run
  // with a tracer and a decision log attached produces the identical
  // schedule, counters and validity.
  const runtime::ScenarioSet set = bsa_set();
  for (const runtime::ScenarioSpec& spec : set) {
    const runtime::ScenarioResult plain = runtime::evaluate_scenario(spec);
    Tracer tracer;
    CollectingDecisionLog decisions;
    Hooks hooks;
    hooks.tracer = &tracer;
    hooks.decision_log = &decisions;
    const runtime::ScenarioResult observed =
        runtime::evaluate_scenario(spec, hooks);
    EXPECT_EQ(observed.schedule_length, plain.schedule_length);
    EXPECT_EQ(observed.valid, plain.valid);
    EXPECT_EQ(observed.counters, plain.counters);
    EXPECT_GT(tracer.event_count(), 0u);
    // Every migration commit in the counters appears in the stream.
    std::int64_t commits = 0;
    for (const auto& [name, value] : plain.counters) {
      if (name == "bsa.migrations") commits = value;
    }
    std::int64_t logged_commits = 0;
    for (const MigrationDecision& d : decisions.decisions()) {
      if (d.outcome == DecisionOutcome::kCommitted ||
          d.outcome == DecisionOutcome::kCommittedVip) {
        ++logged_commits;
      }
    }
    EXPECT_EQ(logged_commits, commits) << "scenario " << spec.index;
  }
}

TEST(ObsHooks, CountersAreBitIdenticalAtAnyThreadCount) {
  const runtime::ScenarioSet set = bsa_set();
  const auto serial = runtime::SweepRunner({.threads = 1}).run(set);
  ASSERT_EQ(serial.size(), set.size());
  for (const auto& r : serial) {
    EXPECT_FALSE(r.counters.empty()) << "scenario " << r.spec.index;
  }
  for (const int threads : {2, 8}) {
    const auto parallel = runtime::SweepRunner({.threads = threads}).run(set);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].counters, serial[i].counters)
          << threads << " threads, scenario " << i;
    }
  }
}

TEST(ObsHooks, TracedSweepEmitsScenarioSpansPerWorkerTrack) {
  const runtime::ScenarioSet set = bsa_set();
  Tracer tracer;
  runtime::SweepOptions opts;
  opts.threads = 2;
  opts.tracer = &tracer;
  const auto results = runtime::SweepRunner(opts).run(set);
  ASSERT_EQ(results.size(), set.size());
  std::size_t scenario_spans = 0;
  for (const TraceEvent& e : tracer.sorted_events()) {
    if (e.name == "scenario" && e.cat == "sweep") ++scenario_spans;
    EXPECT_GE(e.ts_us, 0.0);
  }
  EXPECT_EQ(scenario_spans, set.size());
}

// --- progress meter ---------------------------------------------------------

TEST(Progress, RendersDoneTotalAndFinishesWithNewline) {
  std::ostringstream os;
  {
    ProgressMeter meter(10, "bench", &os, std::chrono::milliseconds(0));
    meter.update(3);
    meter.update(2);  // out-of-order report must not move backwards
    meter.update(7);
    meter.finish();
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("bench"), std::string::npos);
  EXPECT_NE(out.find("3/10"), std::string::npos);
  EXPECT_NE(out.find("7/10"), std::string::npos);
  EXPECT_EQ(out.find("2/10"), std::string::npos);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
}

TEST(Progress, CallbackForwardsToUpdate) {
  std::ostringstream os;
  ProgressMeter meter(4, "x", &os, std::chrono::milliseconds(0));
  const auto cb = meter.callback();
  cb(2, 4);
  meter.finish();
  EXPECT_NE(os.str().find("2/4"), std::string::npos);
}

TEST(Progress, MaybeProgressIsNullWhenNotRequestedOrNoTty) {
  EXPECT_EQ(obs::maybe_progress(false, 10, "x"), nullptr);
  if (!stderr_is_tty()) {
    // In CI / redirected runs --progress must degrade to a no-op.
    EXPECT_EQ(obs::maybe_progress(true, 10, "x"), nullptr);
  }
}

// --- sink integration -------------------------------------------------------

TEST(Sinks, JsonlCounterColumnsAreOptInAndRoundTrip) {
  const runtime::ScenarioSet set = bsa_set();
  const runtime::ScenarioResult r = runtime::evaluate_scenario(set[0]);
  ASSERT_FALSE(r.counters.empty());
  const std::string plain = runtime::to_jsonl(r);
  EXPECT_EQ(plain.find("ctr:"), std::string::npos);
  EXPECT_EQ(plain, runtime::to_jsonl(r, false));

  const std::string with = runtime::to_jsonl(r, true);
  const auto row = runtime::parse_jsonl_row(with);
  for (const auto& [name, value] : r.counters) {
    const auto it = row.find("ctr:" + name);
    ASSERT_NE(it, row.end()) << name;
    EXPECT_EQ(std::get<double>(it->second), static_cast<double>(value));
  }
}

TEST(Sinks, BenchJsonCarriesPercentilesAndCounters) {
  runtime::BenchEntry e;
  e.label = "BSA/ring/100";
  e.runs = 8;
  e.mean_wall_ms = 1.5;
  e.mean_schedule_length = 321.0;
  e.p50_wall_ms = 1.25;
  e.p99_wall_ms = 4.5;
  e.counters = {{"bsa.migrations", 12}, {"bsa.pivots", 3}};
  std::ostringstream os;
  runtime::write_bench_json(os, "unit", 2, {e});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"mean_wall_ms\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"p50_wall_ms\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"p99_wall_ms\":4.5"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"bsa.migrations\":12,"
                      "\"bsa.pivots\":3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"mean_schedule_length\":321"), std::string::npos);
  // An entry that schedules nothing of its own omits the length.
  e.mean_schedule_length.reset();
  std::ostringstream bare;
  runtime::write_bench_json(bare, "unit", 2, {e});
  EXPECT_EQ(bare.str().find("mean_schedule_length"), std::string::npos);
}

// --- percentiles ------------------------------------------------------------

TEST(Percentiles, LinearInterpolationAndMedianAgreement) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(percentile_of(xs, 0), 1.0);
  EXPECT_EQ(percentile_of(xs, 100), 4.0);
  EXPECT_EQ(percentile_of(xs, 50), 2.5);
  EXPECT_EQ(percentile_of(xs, 25), 1.75);
  EXPECT_EQ(percentile_of(xs, 50), median_of(xs));
  EXPECT_EQ(percentile_of({7.0}, 99), 7.0);
}

TEST(Percentiles, RejectsEmptyInputAndBadRanks) {
  EXPECT_THROW((void)percentile_of({}, 50), PreconditionError);
  EXPECT_THROW((void)percentile_of({1.0}, -1), PreconditionError);
  EXPECT_THROW((void)percentile_of({1.0}, 101), PreconditionError);
}

}  // namespace
}  // namespace bsa::obs
