/// perfbench — the repository's layer-separated performance benchmark.
///
///   perfbench --workload bsa-random|list-gauss|serve-mix [--seed N]
///             [--seconds S] [--trace 0|1] [--scratch DIR]
///
/// Each workload drives only the layers it is named for (README.md in
/// this directory has the layer -> metric -> workload table):
///
///   bsa-random  BSA on a suite of `random` layered DAGs;
///   list-gauss  HEFT, DLS and SA on a suite of `gauss` graphs, plus a
///               direct probe of baselines::incoming_data_ready;
///   serve-mix   an in-process serve::Server fed by an open-loop
///               generator (cache hits mixed with misses), then a fixed
///               backlog of distinct misses.
///
/// A run builds its inputs from --seed, times untraced repetitions for
/// --seconds, checks every output, then repeats the work once with an
/// obs::Tracer attached for the per-layer split. The report lines come
/// first; the last line of stdout is one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`, the metric values by name — the
/// end-to-end metrics with --trace 0, the per-layer metrics of the layers
/// the workload drives with --trace 1. run.py adds the units. The exit
/// code is 0 only when every check passed.

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/list_common.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/pivot.hpp"
#include "core/serialization.hpp"
#include "exp/experiment.hpp"
#include "network/cost_model.hpp"
#include "network/routing.hpp"
#include "obs/counters.hpp"
#include "obs/hooks.hpp"
#include "obs/trace.hpp"
#include "sched/event_sim.hpp"
#include "sched/rank_schedulers.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "serve/eval.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "workloads/workload_registry.hpp"

namespace {

using namespace bsa;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : median_of(xs);
}

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : percentile_of(xs, p);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Whether another pass, as long as the mean of the `done` passes so far,
/// still ends within the run's time budget.
bool fits_another(Clock::time_point start, int done, double seconds) {
  const double elapsed = ms_between(start, Clock::now()) / 1000.0;
  return elapsed + elapsed / done <= seconds;
}

// Every workload shares one platform: a 16-processor hypercube with
// execution heterogeneity U[1,4] and link heterogeneity U[1,2].
constexpr int kProcs = 16;
constexpr int kExecHet = 4;
constexpr int kLinkHet = 2;
// Set-up is short (milliseconds) and its time varies with the host's state
// from one second to the next, so it is repeated and its median taken: once
// before the first pass, then this many times in every pass, spread through
// the pass, so that the repetitions sample the host over the whole run. The
// host-speed calibration calls are spread the same way.
constexpr int kSpreadPerPass = 8;
// Spans the benchmark records around its own direct calls into a layer
// land on their own trace track, apart from the program's spans.
constexpr std::uint32_t kBenchTrack = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  std::string scratch = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// --- host-speed calibration -------------------------------------------------

/// The host's speed drifts by up to 1.6x over minutes, for every workload
/// at once, and flips between two speeds about 15% apart within seconds.
/// The end-to-end timings are therefore scaled to a host on which one
/// calibrate_once() call takes this long: timing x kCalibRefMs / the mean
/// calibration time over calls spread through the run. The mean, not the
/// median, so that the estimate follows the share of time spent at each
/// speed. The report prints the raw values too.
constexpr double kCalibRefMs = 25;

/// A fixed workload independent of the library, shaped like the schedulers
/// it stands in for: upward ranks and earliest-finish-time list scheduling
/// of a fixed 1500-task DAG on 16 processors, repeated. Its working set is
/// small, as theirs is; an earlier routine that swept a 200k-node DAG
/// followed the host's speed changes less closely. Returns its wall time
/// in ms.
double calibrate_once() {
  constexpr int kTasks = 1500;
  constexpr int kCpus = 16;
  struct Dag {
    std::vector<std::vector<int>> preds, succs;
    std::vector<std::int64_t> comm;  ///< cost of a task's outgoing data
    std::vector<std::int64_t> exec;  ///< kTasks x kCpus
  };
  static const Dag dag = [] {
    Dag d;
    d.preds.resize(kTasks);
    d.succs.resize(kTasks);
    std::uint64_t x = 777;
    const auto next = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<int>(x >> 33);
    };
    for (int v = 0; v < kTasks; ++v) d.comm.push_back(1 + next() % 100);
    for (int v = 1; v < kTasks; ++v) {
      for (int k = 0; k < 3; ++k) {
        const int u = v - 1 - next() % std::min(v, 60);
        d.preds[v].push_back(u);
        d.succs[u].push_back(v);
      }
    }
    for (int i = 0; i < kTasks * kCpus; ++i) d.exec.push_back(1 + next() % 400);
    return d;
  }();

  const auto t0 = Clock::now();
  std::int64_t total = 0;
  for (int rep = 0; rep < 60; ++rep) {
    std::vector<double> rank(kTasks, 0);
    for (int v = kTasks - 1; v >= 0; --v) {
      double below = 0;
      for (const int w : dag.succs[v]) below = std::max(below, rank[w] + dag.comm[v]);
      double mean_exec = 0;
      for (int p = 0; p < kCpus; ++p) mean_exec += dag.exec[v * kCpus + p];
      rank[v] = below + mean_exec / kCpus;
    }
    // A task ranks above its successors, so rank order is topological.
    std::vector<int> order(kTasks);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&rank](int a, int b) { return rank[a] > rank[b]; });
    std::vector<std::int64_t> finish(kTasks, 0), cpu_free(kCpus, 0);
    std::vector<int> cpu(kTasks, 0);
    for (const int v : order) {
      std::vector<std::pair<std::int64_t, int>> eft;
      eft.reserve(kCpus);
      for (int p = 0; p < kCpus; ++p) {
        std::int64_t start = cpu_free[p];
        for (const int u : dag.preds[v]) {
          start = std::max(start, finish[u] + (cpu[u] == p ? 0 : dag.comm[u]));
        }
        eft.emplace_back(start + dag.exec[v * kCpus + p], p);
      }
      const auto [end, p] = *std::min_element(eft.begin(), eft.end());
      finish[v] = end;
      cpu[v] = p;
      cpu_free[p] = end;
    }
    total += *std::max_element(finish.begin(), finish.end());
  }
  const double ms = ms_between(t0, Clock::now());
  asm volatile("" : : "r"(total) : "memory");  // keep the work observable
  return ms;
}

/// What one run produced: the check tally, the metric values and the
/// human-readable report printed ahead of the JSON line.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// The end-to-end timings scaled by the host-speed calibration.
  std::vector<std::string> scaled = {"setup_s", "batch_s", "p50_ms", "slow_ms"};
  std::ostringstream report = [] {
    std::ostringstream os;
    os.precision(10);
    return os;
  }();

  /// Record one checked operation; a failure is also reported by name.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      report << "FAILED " << what << "\n";
    }
  }

  /// Host-speed samples (calibrate_once times), spread through the run.
  std::vector<double> calib_ms;
  void calibrate(int calls) {
    for (int i = 0; i < calls; ++i) calib_ms.push_back(calibrate_once());
  }

  void counters(const obs::CounterSnapshot& snap) {
    for (const auto& [name, value] : snap) {
      report << "counter " << name << " " << value << "\n";
    }
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The report, then one JSON line: the check tally and the metric values by
/// name. run.py attaches the units BENCHMARK.json declares, and rejects a
/// name it does not declare.
void print_result(const Outcome& out, bool trace) {
  std::cout << out.report.str();
  std::ostringstream js;
  js << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : trace ? out.layer : out.e2e) {
    js << (first ? "" : ", ") << '"' << name << "\": " << json_number(value);
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- span aggregation -------------------------------------------------------

struct SpanStats {
  std::int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  std::vector<double> durations_ms;
  [[nodiscard]] double p50() const { return pct(durations_ms, 50); }
  [[nodiscard]] double p99() const { return pct(durations_ms, 99); }
};

/// Aggregate the tracer's spans by name. A span's self time is its
/// duration minus the spans directly nested in it on the same track.
/// The server records `serve.parse` on track 0 from every session thread,
/// concurrently with the dispatcher's spans on that track, so those spans
/// are never treated as parents or children.
std::map<std::string, SpanStats> aggregate_spans(const obs::Tracer& tracer) {
  std::vector<obs::TraceEvent> events;
  for (obs::TraceEvent& e : tracer.sorted_events()) {
    if (e.ph == 'X') events.push_back(std::move(e));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> open;  // indices of enclosing spans
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) open.clear();
    if (e.name == "serve.parse") continue;
    const double end = e.ts_us + e.dur_us;
    while (!open.empty()) {
      const obs::TraceEvent& p = events[open.back()];
      if (e.ts_us >= p.ts_us && end <= p.ts_us + p.dur_us + 1e-3) break;
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += e.dur_us;
    open.push_back(i);
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanStats& s = out[events[i].name];
    ++s.count;
    s.total_ms += events[i].dur_us / 1000.0;
    s.self_ms += std::max(0.0, events[i].dur_us - child_us[i]) / 1000.0;
    s.durations_ms.push_back(events[i].dur_us / 1000.0);
  }
  return out;
}

const SpanStats& span(const std::map<std::string, SpanStats>& spans,
                      const std::string& name) {
  static const SpanStats kNone;
  const auto it = spans.find(name);
  return it == spans.end() ? kNone : it->second;
}

void report_spans(Outcome& out, const std::map<std::string, SpanStats>& spans) {
  for (const auto& [name, s] : spans) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "span %-24s count=%-7lld total_ms=%.3f self_ms=%.3f "
                  "p50_ms=%.4f p99_ms=%.4f\n",
                  name.c_str(), static_cast<long long>(s.count), s.total_ms,
                  s.self_ms, s.p50(), s.p99());
    out.report << buf;
  }
}

/// Sum snapshots name by name (an aggregate over a suite's runs).
void accumulate(std::map<std::string, std::int64_t>& into,
                const obs::CounterSnapshot& snap) {
  for (const auto& [name, value] : snap) into[name] += value;
}

obs::CounterSnapshot to_snapshot(const std::map<std::string, std::int64_t>& m) {
  return {m.begin(), m.end()};
}

// --- scheduler suites (bsa-random, list-gauss) ------------------------------

/// A scheduler of a suite and how many times a job runs it.
struct SchedulerRuns {
  std::string spec;
  int reps = 1;
};

/// One workload of the scheduler tier: `instances` graphs of one family.
/// A job is one instance through every scheduler, each `reps` times.
struct SuiteSpec {
  std::string family;
  int tasks = 0;
  int instances = 0;
  std::vector<SchedulerRuns> schedulers;
  bool direct_core = false;   ///< time select_first_pivot / serialize
  bool direct_probe = false;  ///< time incoming_data_ready on part-built HEFT
};

struct Instance {
  std::uint64_t seed;
  graph::TaskGraph graph;
  net::HeterogeneousCostModel costs;
};

/// Built inputs. Schedules keep pointers to the topology and graphs, so
/// the whole bundle lives behind one unique_ptr and never moves.
struct SuiteInputs {
  net::Topology topo;
  std::vector<std::unique_ptr<Instance>> instances;
  std::vector<std::unique_ptr<sched::Scheduler>> schedulers;
};

std::unique_ptr<SuiteInputs> build_suite(const SuiteSpec& spec,
                                         std::uint64_t seed,
                                         obs::Tracer* tracer) {
  auto in = std::make_unique<SuiteInputs>(
      SuiteInputs{exp::make_topology("hypercube", kProcs, seed), {}, {}});
  for (const SchedulerRuns& s : spec.schedulers) {
    in->schedulers.push_back(sched::SchedulerRegistry::global().resolve(s.spec));
  }
  const auto family = workloads::WorkloadRegistry::global().resolve(spec.family);
  for (int i = 0; i < spec.instances; ++i) {
    const std::uint64_t inst_seed =
        derive_seed(seed, static_cast<std::uint64_t>(i));
    std::optional<graph::TaskGraph> g;
    {
      obs::Span sp(tracer, "workloads.generate", "bench", kBenchTrack);
      g.emplace(family->generate(spec.tasks, 1.0, inst_seed));
    }
    std::optional<net::HeterogeneousCostModel> costs;
    {
      obs::Span sp(tracer, "network.cost_model", "bench", kBenchTrack);
      costs.emplace(net::HeterogeneousCostModel::uniform_processor_speeds(
          *g, in->topo, 1, kExecHet, 1, kLinkHet, inst_seed));
    }
    in->instances.push_back(std::make_unique<Instance>(
        Instance{inst_seed, std::move(*g), std::move(*costs)}));
  }
  return in;
}

/// Time one incoming_data_ready(commit=false) call for every (ready task,
/// processor) pair of a schedule holding the first half of HEFT's
/// placement order, appending each call's time to `calls_us`.
void probe_part_built_heft(const Instance& inst, const net::Topology& topo,
                           std::vector<double>& calls_us) {
  const sched::RankScheduleResult heft =
      sched::schedule_heft(inst.graph, topo, inst.costs);
  const net::RoutingTable table(topo);
  sched::Schedule s(inst.graph, topo);
  const std::size_t half = heft.order.size() / 2;
  for (std::size_t k = 0; k < half; ++k) {
    const TaskId t = heft.order[k];
    const ProcId p = heft.schedule.proc_of(t);
    const Time ready =
        baselines::incoming_data_ready(s, table, inst.costs, t, p, true);
    const Time dur = inst.costs.exec_cost(t, p);
    const Time start = s.earliest_task_slot(p, ready, dur);
    s.place_task(t, p, start, start + dur);
  }
  for (TaskId t = 0; t < inst.graph.num_tasks(); ++t) {
    if (s.is_placed(t)) continue;
    bool ready = true;
    for (const EdgeId e : inst.graph.in_edges(t)) {
      ready = ready && s.is_placed(inst.graph.edge_src(e));
    }
    if (!ready) continue;
    for (ProcId p = 0; p < topo.num_processors(); ++p) {
      const auto t0 = Clock::now();
      const Time drt =
          baselines::incoming_data_ready(s, table, inst.costs, t, p, false);
      const auto t1 = Clock::now();
      if (drt < 0) throw std::logic_error("negative data-ready time");
      calls_us.push_back(ms_between(t0, t1) * 1000.0);
    }
  }
}

Outcome run_suite(const SuiteSpec& spec, const Args& args) {
  Outcome out;
  const std::size_t ns = spec.schedulers.size();

  // Set-up: inputs built from the seed. The build before the first pass is
  // the one the passes use; the later ones are only timed.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto built = build_suite(spec, args.seed, nullptr);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return built;
  };
  out.calibrate(2);
  const std::unique_ptr<SuiteInputs> in = set_up();
  const std::size_t ni = in->instances.size();
  std::int64_t tasks = 0;
  for (const auto& inst : in->instances) tasks += inst->graph.num_tasks();
  out.report << "workload " << args.workload << ": " << ni << " x "
             << spec.family << " (" << tasks << " tasks in all), hypercube-"
             << kProcs << ", exec U[1," << kExecHet << "], link U[1,"
             << kLinkHet << "], seed " << args.seed << "\n";

  // Warm-up: one discarded run of each scheduler on the first instance.
  for (const auto& s : in->schedulers) {
    const Instance& inst = *in->instances.front();
    (void)s->run(inst.graph, in->topo, inst.costs, inst.seed);
  }

  // Untraced passes over the whole suite until the time is up. Each run
  // is timed on its own; the per-run medians over passes (and over a
  // scheduler's repetitions in a job) are what count.
  std::vector<std::vector<std::optional<sched::SchedulerResult>>> first(
      ni, std::vector<std::optional<sched::SchedulerResult>>(ns));
  std::vector<std::vector<std::vector<double>>> run_ms(
      ni, std::vector<std::vector<double>>(ns));
  std::vector<double> pass_s;
  const std::size_t spread_every = std::max<std::size_t>(1, ni / kSpreadPerPass);
  const auto t_start = Clock::now();
  for (int pass = 0; pass == 0 || fits_another(t_start, pass, args.seconds);
       ++pass) {
    double pass_total = 0;
    for (std::size_t i = 0; i < ni; ++i) {
      if (i % spread_every == 0) {
        out.calibrate(1);
        (void)set_up();
      }
      const Instance& inst = *in->instances[i];
      for (std::size_t k = 0; k < ns; ++k) {
        for (int rep = 0; rep < spec.schedulers[k].reps; ++rep) {
          const auto t0 = Clock::now();
          sched::SchedulerResult r = in->schedulers[k]->run(
              inst.graph, in->topo, inst.costs, inst.seed);
          const double dt = ms_between(t0, Clock::now());
          run_ms[i][k].push_back(dt);
          pass_total += dt / 1000.0;
          if (!first[i][k]) {
            first[i][k].emplace(std::move(r));
            continue;
          }
          const std::string what = "instance " + std::to_string(i) + " " +
                                   spec.schedulers[k].spec + " pass " +
                                   std::to_string(pass) + " rep " +
                                   std::to_string(rep);
          out.check(r.makespan() == first[i][k]->makespan(),
                    what + ": makespan repeats");
          out.check(r.counters == first[i][k]->counters,
                    what + ": counters repeat");
        }
      }
    }
    pass_s.push_back(pass_total);
  }
  // A job is one instance through every scheduler of the workload.
  std::vector<double> job_ms(ni, 0.0);
  std::vector<double> spec_s(ns, 0.0);  // one run per instance
  for (std::size_t i = 0; i < ni; ++i) {
    for (std::size_t k = 0; k < ns; ++k) {
      const double ms = median(run_ms[i][k]);
      job_ms[i] += spec.schedulers[k].reps * ms;
      spec_s[k] += ms / 1000.0;
    }
  }
  double batch = 0;
  for (const double ms : job_ms) batch += ms / 1000.0;

  // Correctness of the first pass's schedules, outside the timed region.
  double makespan_sum = 0;
  std::vector<double> spec_makespan(ns, 0.0);
  std::map<std::string, std::int64_t> counter_sum;
  for (std::size_t i = 0; i < ni; ++i) {
    const Instance& inst = *in->instances[i];
    for (std::size_t k = 0; k < ns; ++k) {
      const sched::SchedulerResult& r = *first[i][k];
      const std::string what =
          "instance " + std::to_string(i) + " " + spec.schedulers[k].spec;
      const sched::ValidationReport v = sched::validate(r.schedule, inst.costs);
      out.check(v.ok(), what + ": validate: " + v.to_string());
      const sched::SimulationResult sim =
          sched::simulate_execution(r.schedule, inst.costs);
      out.check(sim.completed && sched::simulation_matches(r.schedule, sim),
                what + ": event simulation matches");
      makespan_sum += r.makespan();
      spec_makespan[k] += r.makespan();
      accumulate(counter_sum, r.counters);
    }
  }

  // Traced run: the same inputs rebuilt under the tracer, every scheduler
  // through run_observed, plus the direct layer calls.
  obs::Tracer tracer;
  obs::Hooks hooks;
  hooks.tracer = &tracer;
  auto tin = build_suite(spec, args.seed, &tracer);
  double traced_s = 0;
  for (std::size_t i = 0; i < ni; ++i) {
    const Instance& inst = *tin->instances[i];
    for (std::size_t k = 0; k < ns; ++k) {
      for (int rep = 0; rep < spec.schedulers[k].reps; ++rep) {
        const auto t0 = Clock::now();
        const sched::SchedulerResult r = tin->schedulers[k]->run_observed(
            inst.graph, tin->topo, inst.costs, inst.seed, hooks);
        traced_s += ms_between(t0, Clock::now()) / 1000.0;
        out.check(r.makespan() == first[i][k]->makespan(),
                  "instance " + std::to_string(i) + " " +
                      spec.schedulers[k].spec +
                      ": traced makespan equals untraced");
      }
    }
  }
  std::vector<double> probe_us;
  for (std::size_t i = 0; i < ni; ++i) {
    const Instance& inst = *tin->instances[i];
    if (spec.direct_core) {
      core::PivotSelection pv;
      {
        obs::Span sp(&tracer, "core.select_first_pivot", "bench", kBenchTrack);
        pv = core::select_first_pivot(inst.graph, tin->topo, inst.costs);
      }
      const std::vector<Cost> exec = inst.costs.exec_costs_on(pv.pivot);
      Rng rng(inst.seed);
      obs::Span sp(&tracer, "core.serialize", "bench", kBenchTrack);
      const core::SerializationResult sr = core::serialize(
          inst.graph, exec, inst.costs.nominal_comm_costs(), rng);
      sp.close();
      out.check(static_cast<int>(sr.order.size()) == inst.graph.num_tasks(),
                "instance " + std::to_string(i) + ": serialize orders every task");
    }
    if (spec.direct_probe) {
      obs::Span sp(&tracer, "baselines.probe", "bench", kBenchTrack);
      probe_part_built_heft(inst, tin->topo, probe_us);
    }
  }
  const auto spans = aggregate_spans(tracer);

  // --- end-to-end metrics (untraced) ---------------------------------------
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["batch_s"] = batch;
  out.e2e["makespan"] = makespan_sum;
  out.e2e["p50_ms"] = pct(job_ms, 50);
  out.e2e["slow_ms"] = pct(job_ms, 90);
  out.report << "untraced: " << pass_s.size() << " passes of " << ni
             << " jobs (one warm-up run per scheduler discarded); each "
             << "run's time is its median over the passes\n  pass totals (s):";
  for (const double p : pass_s) out.report << " " << p;
  out.report << "\n";
  out.report << "  setup_s " << median(setup_s) << " s (median of "
             << setup_s.size() << ")\n";
  for (std::size_t k = 0; k < ns; ++k) {
    const std::string& name = tin->schedulers[k]->spec();
    const std::string label = name.substr(0, name.find(':'));
    out.report << "  " << label << "_s " << spec_s[k]
               << " s (sum over the suite of one run each, spec " << name
               << "; " << spec.schedulers[k].reps << " run(s) per job)\n";
    out.report << "  " << label << "_makespan " << spec_makespan[k]
               << " time (sum over the suite)\n";
  }
  out.report << "  batch_s " << batch << " s; job p50 " << pct(job_ms, 50)
             << " ms, p90 (slow_ms) " << pct(job_ms, 90) << " ms (n=" << ni
             << " jobs)\n";

  // --- per-layer metrics (traced) ------------------------------------------
  auto& L = out.layer;
  const obs::CounterSnapshot counters = to_snapshot(counter_sum);
  const auto ctr = [&](const char* name) {
    return static_cast<double>(obs::snapshot_value(counters, name));
  };
  L["workloads.generate_ms"] = span(spans, "workloads.generate").total_ms;
  L["network.cost_model_ms"] = span(spans, "network.cost_model").total_ms;
  L["core.pivot_selection_ms"] = span(spans, "core.select_first_pivot").total_ms;
  L["core.serialization_ms"] = span(spans, "core.serialize").total_ms;
  L["core.evaluate_ms"] = span(spans, "pivot").self_ms;
  L["core.considered"] = ctr("bsa.considered");
  L["core.migrations"] = ctr("bsa.migrations");
  L["core.accept_ratio"] = ratio(ctr("bsa.migrations"), ctr("bsa.considered"));
  L["sched.retime_ms"] = span(spans, "retime").total_ms;
  L["sched.retime_calls"] = static_cast<double>(span(spans, "retime").count);
  L["sched.retime_migrations"] = ctr("bsa.retime.migrations");
  L["sched.nodes_recomputed"] = ctr("bsa.retime.nodes_recomputed");
  L["sched.nodes_per_retime"] =
      ratio(ctr("bsa.retime.nodes_recomputed"), ctr("bsa.retime.migrations"));
  L["sched.replay_ms"] = span(spans, "replay").total_ms;
  L["sched.replay_fallbacks"] = ctr("bsa.replay_fallbacks");
  L["sched.rollback_ms"] = span(spans, "rollback").total_ms;
  L["sched.txn_journal_records"] = ctr("bsa.txn.journal_records");
  for (const auto& s : tin->schedulers) {
    const std::string name = s->spec();
    const std::string label = name.substr(0, name.find(':'));
    L["sched." + label + "_ms"] = span(spans, name).total_ms;
  }
  L["sa.proposed"] = ctr("sa.proposed");
  L["sa.accepted"] = ctr("sa.accepted");
  L["sa.replay_fallbacks"] = ctr("sa.replay_fallbacks");
  L["sa.replay_share"] = ratio(ctr("sa.replay_fallbacks"), ctr("sa.proposed"));
  L["baselines.probe_us"] = median(probe_us);
  L["baselines.probe_calls"] = static_cast<double>(probe_us.size());
  L["trace.overhead_share"] = ratio(traced_s, batch) - 1.0;

  out.report << "traced: one pass, " << traced_s << " s (untraced median "
             << batch << " s, overhead " << L["trace.overhead_share"] * 100
             << "%)\n";
  if (spec.direct_probe) {
    out.report << "  probe: " << probe_us.size()
               << " incoming_data_ready(commit=false) calls, median "
               << median(probe_us) << " us\n";
  }
  report_spans(out, spans);
  out.counters(counters);
  return out;
}

// --- serve-mix --------------------------------------------------------------

constexpr int kServeTasks = 50;
constexpr int kHotKeys = 16;
constexpr double kHitShare = 0.8;  // share of stream requests on hot keys
constexpr double kRate = 500;      // requests per second, open loop
constexpr double kStreamS = 3;     // seconds per stream phase
constexpr double kTracedStreamS = 2;
constexpr std::size_t kBacklog = 4096;
constexpr std::size_t kMaxQueue = 8192;  // above kBacklog: nothing is shed
constexpr int kPoolThreads = 2;
constexpr int kSilenceLimitMs = 20000;  // no response this long: give up
constexpr double kLateLimitMs = 1.0;    // generator counts as behind above

/// Request seeds stay below 2^53: the wire format carries JSON doubles.
std::uint64_t key_base(std::uint64_t seed) {
  return (seed % 1000000) * 100000000ULL;
}
std::uint64_t hot_key(std::uint64_t seed, int k) {
  return key_base(seed) + static_cast<std::uint64_t>(k);
}
/// Distinct fresh keys: stream misses of pass p, then its backlog.
std::uint64_t fresh_key(std::uint64_t seed, int pass, bool backlog,
                        std::uint64_t i) {
  return key_base(seed) +
         1000000ULL * (1 + 2 * static_cast<std::uint64_t>(pass) +
                       (backlog ? 1 : 0)) +
         i;
}

serve::Request make_request(std::uint64_t key) {
  serve::Request r;
  r.workload = "random";
  r.algo = "bsa";
  r.topology = "hypercube";
  r.procs = kProcs;
  r.size = kServeTasks;
  r.het = kExecHet;
  r.link_het = kLinkHet;
  r.seed = key;
  return r;
}

/// One request of an open-loop phase and what became of it.
struct Slot {
  std::uint64_t key = 0;
  bool hot = false;
  double offset_s = 0;  ///< due time, relative to the phase start
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point recv{};
  bool sent_ok = false;
  bool answered = false;
  bool ok = false;
  bool cached = false;
  double makespan = 0;
  std::string raw;  ///< the response line
};

/// The generated input of one phase: its requests and their wire lines
/// (request id = slot index + 1).
struct Phase {
  std::vector<Slot> slots;
  std::vector<std::string> lines;
};

Phase make_phase(std::vector<Slot> slots) {
  Phase p;
  p.lines.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    serve::Request r = make_request(slots[i].key);
    r.id = i + 1;
    p.lines.push_back(serve::request_to_json(r) + "\n");
  }
  p.slots = std::move(slots);
  return p;
}

/// Stream of pass `pass`: hits on the hot set mixed with fresh misses,
/// due at a fixed rate.
Phase stream_phase(std::uint64_t seed, int pass, double seconds) {
  const auto n = static_cast<std::size_t>(kRate * seconds);
  std::vector<Slot> slots(n);
  Rng rng(derive_seed(seed, 0x5e7e, static_cast<std::uint64_t>(pass)));
  std::uint64_t fresh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    s.hot = rng.uniform_real(0, 1) < kHitShare;
    s.key = s.hot ? hot_key(seed, static_cast<int>(rng.uniform_int(0, kHotKeys - 1)))
                  : fresh_key(seed, pass, false, fresh++);
    s.offset_s = static_cast<double>(i) / kRate;
  }
  return make_phase(std::move(slots));
}

/// Backlog of pass `pass`: distinct misses, all due at once.
Phase backlog_phase(std::uint64_t seed, int pass) {
  std::vector<Slot> slots(kBacklog);
  for (std::size_t i = 0; i < kBacklog; ++i) {
    slots[i].key = fresh_key(seed, pass, true, i);
  }
  return make_phase(std::move(slots));
}

Phase hot_phase(std::uint64_t seed) {
  std::vector<Slot> slots(kHotKeys);
  for (int k = 0; k < kHotKeys; ++k) {
    slots[static_cast<std::size_t>(k)].key = hot_key(seed, k);
    slots[static_cast<std::size_t>(k)].hot = true;
  }
  return make_phase(std::move(slots));
}

/// The client connections to the server under test.
using Connections = std::vector<serve::Fd>;

Connections connect_pair(const std::string& path) {
  Connections c;
  for (int i = 0; i < 2; ++i) c.push_back(serve::connect_unix(path, 5000));
  return c;
}

/// Round-trip one ping on every connection.
bool ping_all(Connections& c) {
  bool ok = true;
  for (serve::Fd& fd : c) {
    serve::Request r;
    r.op = "ping";
    r.id = 1;
    if (!serve::write_all(fd, serve::request_to_json(r) + "\n")) return false;
    serve::LineReader reader(fd);
    std::string line;
    ok = ok && reader.read_line(line, serve::kMaxRequestBytes, kSilenceLimitMs) &&
         serve::parse_response(line).ok;
  }
  return ok;
}

/// The id of a response line, which starts {"id":N,...; 0 when malformed.
std::uint64_t response_id(const std::string& line) {
  constexpr const char kPrefix[] = "{\"id\":";
  if (line.rfind(kPrefix, 0) != 0) return 0;
  return std::strtoull(line.c_str() + sizeof kPrefix - 1, nullptr, 10);
}

/// Run one phase as an open loop on this thread: send each request when
/// it falls due (alternating the two connections) and, between sends,
/// drain whatever responses have arrived. The thread spins instead of
/// sleeping until everything is sent, so send and receive stamps carry no
/// wake-up delay of the generator's own. Responses are parsed after the
/// phase.
void drive(Connections& c, Phase& phase) {
  std::vector<Slot>& slots = phase.slots;
  std::vector<std::unique_ptr<serve::LineReader>> readers;
  for (const serve::Fd& fd : c) {
    readers.push_back(std::make_unique<serve::LineReader>(fd));
  }
  std::vector<bool> open(c.size(), true);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (Slot& s : slots) {
    s.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s.offset_s));
  }
  std::size_t next = 0;
  std::size_t answered = 0;
  auto last_progress = Clock::now();
  std::string line;
  while (answered < slots.size()) {
    auto now = Clock::now();
    for (int burst = 0; burst < 8 && next < slots.size() && slots[next].due <= now;
         ++burst, ++next) {
      Slot& s = slots[next];
      s.sent = Clock::now();
      s.sent_ok = serve::write_all(c[next % c.size()], phase.lines[next]);
      if (!s.sent_ok) ++answered;  // never to be answered
    }
    bool got = false;
    for (std::size_t k = 0; k < readers.size(); ++k) {
      while (open[k] && readers[k]->read_line(line, serve::kMaxRequestBytes, 0)) {
        const auto t = Clock::now();
        const std::uint64_t id = response_id(line);
        if (id == 0 || id > slots.size() || (id - 1) % c.size() != k ||
            slots[id - 1].answered) {
          continue;  // stray line: its request stays unanswered
        }
        Slot& s = slots[id - 1];
        s.recv = t;
        s.answered = true;
        s.raw = std::move(line);
        ++answered;
        got = true;
      }
      if (open[k] && !readers[k]->timed_out()) open[k] = false;  // EOF
    }
    now = Clock::now();
    if (got) last_progress = now;
    if (ms_between(last_progress, now) > kSilenceLimitMs) break;
    if (next == slots.size() && !got) {
      // Everything is sent: block until a response arrives rather than
      // spin, leaving the processors to the server.
      std::vector<pollfd> pfds;
      for (std::size_t k = 0; k < c.size(); ++k) {
        if (open[k]) pfds.push_back(pollfd{c[k].get(), POLLIN, 0});
      }
      if (pfds.empty()) break;
      (void)::poll(pfds.data(), pfds.size(), 10);
    }
  }
  for (Slot& s : slots) {
    if (!s.answered) continue;
    try {
      const serve::Response r = serve::parse_response(s.raw);
      s.ok = r.ok;
      s.cached = r.cached;
      s.makespan = r.makespan();
    } catch (const std::exception&) {
      s.ok = false;
    }
  }
}

/// Latency and accounting of one or more stream phases.
struct StreamStats {
  std::vector<double> hit_ms, miss_ms, late_ms;
  std::int64_t sent = 0, succeeded = 0, failed = 0;

  void add(const std::vector<Slot>& slots) {
    for (const Slot& s : slots) {
      ++sent;
      late_ms.push_back(ms_between(s.due, s.sent));
      if (!(s.sent_ok && s.answered && s.ok)) {
        ++failed;
        continue;
      }
      ++succeeded;
      const double ms = ms_between(s.due, s.recv);
      (s.cached ? hit_ms : miss_ms).push_back(ms);
    }
  }
};

/// Time from the first send to the last response of a backlog phase.
double drain_s(const std::vector<Slot>& slots) {
  Clock::time_point last = slots.front().sent;
  for (const Slot& s : slots) last = std::max(last, s.recv);
  return ms_between(slots.front().sent, last) / 1000.0;
}

/// Count a phase's requests; a request not answered with success fails.
void tally(Outcome& out, const std::vector<Slot>& slots,
           const std::string& phase) {
  std::int64_t bad = 0;
  for (const Slot& s : slots) {
    if (!(s.sent_ok && s.answered && s.ok)) ++bad;
  }
  out.attempted += static_cast<std::int64_t>(slots.size());
  out.failed += bad;
  if (bad > 0) out.report << "FAILED " << bad << " requests in " << phase << "\n";
}

/// Counter delta b - a (serve.* counters are process-cumulative).
obs::CounterSnapshot delta(const obs::CounterSnapshot& a,
                           const obs::CounterSnapshot& b) {
  std::map<std::string, std::int64_t> m(b.begin(), b.end());
  for (const auto& [name, value] : a) m[name] -= value;
  return to_snapshot(m);
}

// serve.* counters that depend on timing (how requests fell into batches)
// rather than on the request stream: reported as gauges, not exact counts.
bool timing_dependent(const std::string& name) {
  return name == "serve.batches" || name == "serve.batch_size_hwm" ||
         name == "serve.connections";
}

void report_phase_counters(Outcome& out, const obs::CounterSnapshot& d,
                           const std::string& phase) {
  for (const auto& [name, value] : d) {
    out.report << (timing_dependent(name) ? "gauge " : "counter ") << phase
               << "." << name << " " << value << "\n";
  }
}

/// The payload of a success response line: everything after the envelope.
std::string payload_of(const std::string& line) {
  const std::size_t at = line.find("\"server_us\":");
  if (at == std::string::npos || line.back() != '}') return {};
  const std::size_t comma = line.find(',', at);
  if (comma == std::string::npos) return {};
  return line.substr(comma + 1, line.size() - comma - 2);
}

std::string expected_payload(std::uint64_t key) {
  serve::Request r = make_request(key);
  (void)serve::canonicalize(r);
  return serve::evaluate_request(r);
}

serve::ServerOptions server_options(const std::string& path,
                                    obs::Tracer* tracer) {
  serve::ServerOptions o;
  o.socket_path = path;
  o.threads = kPoolThreads;
  o.cache_capacity = 1 << 16;  // no evictions: every hot request hits
  o.max_queue = kMaxQueue;
  o.tracer = tracer;
  return o;
}

/// A started server with its two connections, answering pings.
struct Live {
  std::unique_ptr<serve::Server> server;
  std::optional<Connections> conns;

  Live(const std::string& path, obs::Tracer* tracer)
      : server(std::make_unique<serve::Server>(server_options(path, tracer))) {
    server->start();
    conns.emplace(connect_pair(server->socket_path()));
  }
  ~Live() {
    conns.reset();
    server->stop();
  }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
};

Outcome run_serve(const Args& args) {
  Outcome out;
  const std::string base =
      args.scratch + "/perfbench-" + std::to_string(::getpid());

  // Set-up: the first pass's request stream and backlog, server start and
  // a first ping on both connections. The set-up before the first pass
  // stays up; the ones between phases start a second server on its own
  // socket and are only timed.
  std::vector<double> setup_s;
  struct Setup {
    Phase stream, backlog;
    std::unique_ptr<Live> live;
  };
  const auto set_up = [&](const std::string& path) {
    const auto t0 = Clock::now();
    Setup su{stream_phase(args.seed, 0, kStreamS), backlog_phase(args.seed, 0),
             std::make_unique<Live>(path, nullptr)};
    const bool pinged = ping_all(*su.live->conns);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    out.check(pinged, "set-up ping");
    return su;
  };
  out.calibrate(2);
  Setup su = set_up(base + ".sock");
  std::unique_ptr<Live> live = std::move(su.live);
  std::optional<Phase> stream0(std::move(su.stream));
  std::optional<Phase> backlog0(std::move(su.backlog));
  out.report << "workload serve-mix: serve::Server with " << kPoolThreads
             << " pool threads; one generator thread, open loop at " << kRate
             << " req/s over " << live->conns->size() << " connections, "
             << kHitShare * 100 << "% hits on " << kHotKeys << " hot keys; "
             << kServeTasks << "-task random/bsa requests on hypercube-"
             << kProcs << "; backlog " << kBacklog
             << " distinct misses; seed " << args.seed << "\n";

  Phase warm = hot_phase(args.seed);
  drive(*live->conns, warm);
  tally(out, warm.slots, "warm-up");

  StreamStats stream;
  StreamStats backlog;  // accounting only: backlog latency is its drain
  std::vector<double> drains;
  obs::CounterSnapshot stream_delta0, backlog_delta0;
  std::map<std::string, std::int64_t> batches;
  const auto t_start = Clock::now();
  int passes = 0;
  for (int pass = 0; pass == 0 || fits_another(t_start, pass, args.seconds);
       ++pass, ++passes) {
    Phase st = pass == 0 ? std::move(*stream0) : stream_phase(args.seed, pass, kStreamS);
    Phase bl = pass == 0 ? std::move(*backlog0) : backlog_phase(args.seed, pass);
    const obs::CounterSnapshot c0 = live->server->counters();
    drive(*live->conns, st);
    const obs::CounterSnapshot c1 = live->server->counters();
    for (int r = 0; r < kSpreadPerPass / 2; ++r) {
      out.calibrate(1);
      (void)set_up(base + "-setup.sock");
    }
    drive(*live->conns, bl);
    const obs::CounterSnapshot c2 = live->server->counters();
    tally(out, st.slots, "stream pass " + std::to_string(pass));
    tally(out, bl.slots, "backlog pass " + std::to_string(pass));
    stream.add(st.slots);
    backlog.add(bl.slots);
    drains.push_back(drain_s(bl.slots));
    batches["stream"] += obs::snapshot_value(delta(c0, c1), "serve.batches");
    batches["backlog"] += obs::snapshot_value(delta(c1, c2), "serve.batches");
    for (int r = 0; r < kSpreadPerPass / 2; ++r) {
      out.calibrate(1);
      (void)set_up(base + "-setup.sock");
    }
    if (pass == 0) {
      stream_delta0 = delta(c0, c1);
      backlog_delta0 = delta(c1, c2);
      stream0.emplace(std::move(st));
      backlog0.emplace(std::move(bl));
    }
  }
  live.reset();

  // Correctness: cached payloads and a sample of fresh ones are
  // byte-identical to a direct evaluate_request of the same request.
  std::map<std::uint64_t, const Slot*> first_hit;
  for (const Slot& s : stream0->slots) {
    if (s.hot && s.cached && !first_hit.count(s.key)) first_hit[s.key] = &s;
  }
  out.check(first_hit.size() == static_cast<std::size_t>(kHotKeys),
            "every hot key answered from the cache");
  for (const auto& [key, s] : first_hit) {
    out.check(payload_of(s->raw) == expected_payload(key),
              "cached payload of key " + std::to_string(key) +
                  " is byte-identical to evaluate_request");
  }
  const std::vector<Slot>& first_backlog = backlog0->slots;
  for (std::size_t i = 0; i < 8; ++i) {
    const Slot& s = first_backlog[i];
    out.check(!s.cached && payload_of(s.raw) == expected_payload(s.key),
              "fresh payload of key " + std::to_string(s.key) +
                  " is byte-identical to evaluate_request");
  }
  double makespan_sum = 0;
  for (const Slot& s : first_backlog) makespan_sum += s.makespan;

  // Traced run: a fresh server with the tracer, a shorter stream and the
  // first pass's backlog (cold again in the new cache).
  obs::Tracer tracer;
  StreamStats tstream;
  double traced_drain = 0;
  double traced_makespan = 0;
  obs::CounterSnapshot tdelta, tstream_delta;
  {
    Live tl(base + "-traced.sock", &tracer);
    out.check(ping_all(*tl.conns), "traced set-up ping");
    Phase tw = hot_phase(args.seed);
    drive(*tl.conns, tw);
    tally(out, tw.slots, "traced warm-up");
    const obs::CounterSnapshot c0 = tl.server->counters();
    Phase st = stream_phase(args.seed, 0, kTracedStreamS);
    drive(*tl.conns, st);
    tally(out, st.slots, "traced stream");
    tstream.add(st.slots);
    tstream_delta = delta(c0, tl.server->counters());
    Phase bl = backlog_phase(args.seed, 0);
    drive(*tl.conns, bl);
    tally(out, bl.slots, "traced backlog");
    traced_drain = drain_s(bl.slots);
    for (const Slot& s : bl.slots) traced_makespan += s.makespan;
    tdelta = delta(c0, tl.server->counters());
  }
  out.check(traced_makespan == makespan_sum,
            "traced backlog makespans equal untraced");

  // Direct calls into the serve layers, on the benchmark's own track.
  std::vector<double> parse_us, canon_us, eval_ms;
  {
    const Phase hot = hot_phase(args.seed);
    obs::Span sp(&tracer, "serve.direct_parse", "bench", kBenchTrack);
    for (int rep = 0; rep < 64; ++rep) {
      for (const std::string& line : hot.lines) {
        const auto t0 = Clock::now();
        serve::Request r = serve::parse_request(line);
        const auto t1 = Clock::now();
        const std::string key = serve::canonicalize(r);
        const auto t2 = Clock::now();
        parse_us.push_back(ms_between(t0, t1) * 1000.0);
        canon_us.push_back(ms_between(t1, t2) * 1000.0);
        out.check(!key.empty(), "canonical key");
      }
    }
  }
  const net::Topology topo = exp::make_topology("hypercube", kProcs, args.seed);
  const auto family = workloads::WorkloadRegistry::global().resolve("random");
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint64_t key = first_backlog[i].key;
    serve::Request r = make_request(key);
    (void)serve::canonicalize(r);
    const auto t0 = Clock::now();
    std::string payload;
    {
      obs::Span sp(&tracer, "serve.evaluate_request", "bench", kBenchTrack);
      payload = serve::evaluate_request(r);
    }
    eval_ms.push_back(ms_between(t0, Clock::now()));
    out.check(payload == payload_of(first_backlog[i].raw),
              "direct evaluate_request of key " + std::to_string(key));
    std::optional<graph::TaskGraph> g;
    {
      obs::Span sp(&tracer, "workloads.generate", "bench", kBenchTrack);
      g.emplace(family->generate(kServeTasks, 1.0, key));
    }
    obs::Span sp(&tracer, "network.cost_model", "bench", kBenchTrack);
    (void)net::HeterogeneousCostModel::uniform_processor_speeds(
        *g, topo, 1, kExecHet, 1, kLinkHet, key);
  }
  const auto spans = aggregate_spans(tracer);

  // --- end-to-end metrics (untraced) ---------------------------------------
  const double drain = median(drains);
  const double late_p99 = pct(stream.late_ms, 99);
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["batch_s"] = drain;
  out.e2e["makespan"] = makespan_sum;
  out.e2e["p50_ms"] = pct(stream.hit_ms, 50);
  out.e2e["slow_ms"] = pct(stream.miss_ms, 50);
  // A cache hit's latency is mostly thread wake-ups and socket calls, which
  // do not follow the calibration: scaling it widened its run-to-run spread
  // (10.9% raw, 12.6% scaled over ten runs), so it is reported raw.
  std::erase(out.scaled, "p50_ms");
  out.report << "untraced: " << passes << " passes of a " << kStreamS
             << " s stream then the backlog\n";
  out.report << "  stream: sent " << stream.sent << ", succeeded "
             << stream.succeeded << ", failed " << stream.failed << " ("
             << stream.hit_ms.size() << " hits, " << stream.miss_ms.size()
             << " misses)\n";
  out.report << "  backlog: sent " << backlog.sent << ", succeeded "
             << backlog.succeeded << ", failed " << backlog.failed << "\n";
  out.report << "  setup_s " << median(setup_s) << " s (median of "
             << setup_s.size() << ")\n";
  out.report << "  serve_hit_p50_ms (p50_ms) " << pct(stream.hit_ms, 50)
             << " ms, serve_hit_p99_ms " << pct(stream.hit_ms, 99)
             << " ms (n=" << stream.hit_ms.size()
             << ", timed from each request's due time)\n";
  out.report << "  serve_miss_p50_ms (slow_ms) " << pct(stream.miss_ms, 50)
             << " ms, serve_miss_p99_ms " << pct(stream.miss_ms, 99)
             << " ms (n=" << stream.miss_ms.size() << ")\n";
  out.report << "  backlog: " << drains.size() << " x " << kBacklog
             << " misses; batch_s (drain) median " << drain
             << " s, serve_miss_capacity_rps " << ratio(kBacklog, drain)
             << "\n  drains (s):";
  for (const double d : drains) out.report << " " << d;
  out.report << "\n";
  out.report << "  makespan " << makespan_sum
             << " time (sum over the first backlog)\n";
  out.report << "  gen.late_p99_ms " << late_p99 << " ms"
             << (late_p99 > kLateLimitMs
                     ? "  GENERATOR BEHIND: latencies include generator delay"
                     : "")
             << "\n";
  report_phase_counters(out, stream_delta0, "stream");
  report_phase_counters(out, backlog_delta0, "backlog");
  for (const auto& [phase, n] : batches) {
    out.report << "gauge all_passes." << phase << ".serve.batches " << n << "\n";
  }

  // --- per-layer metrics (traced) ------------------------------------------
  auto& L = out.layer;
  const auto tctr = [&](const char* name) {
    return static_cast<double>(obs::snapshot_value(tdelta, name));
  };
  L["workloads.generate_ms"] = span(spans, "workloads.generate").total_ms;
  L["network.cost_model_ms"] = span(spans, "network.cost_model").total_ms;
  L["core.evaluate_ms"] = span(spans, "pivot").self_ms;
  L["sched.bsa_ms"] = span(spans, "bsa").total_ms;
  L["sched.retime_ms"] = span(spans, "retime").total_ms;
  L["sched.retime_calls"] = static_cast<double>(span(spans, "retime").count);
  L["sched.replay_ms"] = span(spans, "replay").total_ms;
  L["sched.rollback_ms"] = span(spans, "rollback").total_ms;
  L["serve.parse_us"] = median(parse_us);
  L["serve.canonicalize_us"] = median(canon_us);
  L["serve.eval_ms"] = median(eval_ms);
  L["serve.overhead_ms"] = pct(tstream.miss_ms, 50) - median(eval_ms);
  const SpanStats& sp_parse = span(spans, "serve.parse");
  L["serve.parse_span_ms"] = sp_parse.total_ms;
  L["serve.parse_p50_us"] = sp_parse.p50() * 1000.0;
  L["serve.parse_p99_us"] = sp_parse.p99() * 1000.0;
  for (const std::string phase : {"batch", "schedule", "respond"}) {
    const SpanStats& s = span(spans, "serve." + phase);
    L["serve." + phase + "_span_ms"] = s.total_ms;
    L["serve." + phase + "_p50_ms"] = s.p50();
    L["serve." + phase + "_p99_ms"] = s.p99();
  }
  const double hits = obs::snapshot_value(tstream_delta, "serve.cache.hits");
  L["serve.hit_ratio"] = ratio(
      hits, hits + obs::snapshot_value(tstream_delta, "serve.cache.misses"));
  const double misses = tctr("serve.cache.misses");
  L["serve.misses"] = misses;
  L["serve.batches"] = tctr("serve.batches");
  L["serve.mean_batch"] = ratio(misses, tctr("serve.batches"));
  L["serve.batch_dedup"] = tctr("serve.batch_dedup");
  L["serve.overloads"] = tctr("serve.overloads");
  L["gen.late_p99_ms"] = late_p99;
  L["trace.overhead_share"] = ratio(traced_drain, drain) - 1.0;

  out.report << "traced: " << kTracedStreamS << " s stream ("
             << tstream.succeeded << " answered; miss p50 "
             << pct(tstream.miss_ms, 50) << " ms) and one backlog drained in "
             << traced_drain << " s (overhead "
             << L["trace.overhead_share"] * 100 << "% on batch_s)\n";
  out.report << "  direct: serve.parse_us " << median(parse_us)
             << ", serve.canonicalize_us " << median(canon_us) << " (n="
             << parse_us.size() << "), serve.eval_ms " << median(eval_ms)
             << " (n=" << eval_ms.size() << ")\n";
  report_spans(out, spans);
  return out;
}

SuiteSpec suite_for(const std::string& workload) {
  SuiteSpec s;
  if (workload == "bsa-random") {
    s.family = "random";
    s.tasks = 500;
    s.instances = 96;
    s.schedulers = {{"bsa", 1}};
    s.direct_core = true;
  } else if (workload == "list-gauss") {
    s.family = "gauss";
    s.tasks = 500;
    s.instances = 12;
    // One HEFT run is about a tenth of a DLS run, so a job runs HEFT ten
    // times: each scheduler is then about a third of a job and of batch_s,
    // and a slowdown of any one of them shows.
    s.schedulers = {{"heft", 10}, {"dls", 1}, {"sa:init=heft,iters=200,seed=1", 1}};
    s.direct_probe = true;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + workload +
        "' (expected bsa-random, list-gauss or serve-mix)");
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Outcome out = args.workload == "serve-mix"
                      ? run_serve(args)
                      : run_suite(suite_for(args.workload), args);
    double calib = 0;
    for (const double ms : out.calib_ms) calib += ms / out.calib_ms.size();
    const double scale = kCalibRefMs / calib;
    out.report << "host calibration: mean " << calib << " ms over "
               << out.calib_ms.size() << " calls; scaled JSON timings = raw x "
               << kCalibRefMs << " / " << calib << " = raw x " << scale
               << "\n  raw:";
    for (const std::string& name : out.scaled) {
      out.report << " " << name << " " << out.e2e.at(name);
      out.e2e[name] *= scale;
    }
    out.report << "\n";
    out.layer["peak_rss_mb"] = peak_rss_mb();
    out.layer["error_share"] =
        ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));
    out.report << "error_share " << out.layer["error_share"] << " ("
               << out.failed << " failed of " << out.attempted
               << " attempted)\npeak_rss_mb " << out.layer["peak_rss_mb"]
               << "\n";
    print_result(out, args.trace);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
