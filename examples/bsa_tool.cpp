/// Command-line scheduling tool: read a task graph from a file (or
/// stdin) in the native text format — or generate one from any
/// registered workload spec — pick a topology and cost model on the
/// command line, schedule with any registered algorithm spec, and print
/// the result.
///
///   $ ./bsa_tool graph.tg --topology ring --procs 8 --algo bsa --gantt
///   $ ./bsa_tool graph.tg --algo bsa:gate=always,route=static --algo dls
///   $ ./bsa_tool --workload fft:points=64 --algo all --procs 16
///   $ ./bsa_tool --workload all --size 80 --algo bsa --out runs.jsonl
///   $ cat graph.tg | ./bsa_tool --algo all --threads 3 --out runs.jsonl
///
/// Graph format (see graph::read_text):
///   task <cost> [name]
///   edge <src> <dst> <cost>
///
/// Run `bsa_tool --help` for the flag reference; the full spec grammar
/// for --algo and --workload lives in docs/SPECS.md.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "exp/experiment.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_stats.hpp"
#include "obs/decision_log.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/gantt.hpp"
#include "sched/scheduler.hpp"
#include "sched/schedule_io.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "workloads/workload_registry.hpp"

namespace {

using namespace bsa;

constexpr const char* kUsage = R"(usage: bsa_tool [graph.tg] [flags]

Reads a task graph from a file (or stdin), or generates one per
--workload spec, and schedules it with every requested --algo spec.

  --workload SPEC[,SPEC...]  generate graphs from the workload registry
                     (repeatable; "all" = every registered workload;
                     e.g. fft:points=64,ccr=0.5 or stencil:rows=8,cols=8)
  --size N           target task count for scalable workloads (default 100)
  --gran G           granularity (avg exec / avg comm) for generated
                     workloads (default 1.0; a spec's ccr= option wins)
  --list-workloads   print the registered workload names and exit
  --algo SPEC[,SPEC...]  scheduler registry specs (default bsa;
                     repeatable; "all" = every registered algorithm;
                     variants like bsa:gate=always,route=static).
                     --bsa/--dls/--eft/--mh boolean aliases also work.
  --list-algos       print the registered algorithm names and exit
  --topology ring|hypercube|clique|mesh|random|linear|star  (default ring)
  --procs N          processor count (default 8)
  --het N / --link-het N   heterogeneity ranges U[1,N]  (default 1)
  --per-pair         per-(task,processor) factors instead of speeds
  --seed S           RNG seed
  --threads N        run the requested algorithms concurrently (0 = all cores)
  --gantt            render an ASCII Gantt chart
  --dot              print the graph(s) in Graphviz DOT and exit
  --stats            print workload statistics before scheduling
  --export FILE      write the (last) schedule in text form to FILE
  --export-csv FILE  write the (last) schedule as CSV event rows
  --out FILE         append one JSONL metrics row per algorithm run
  --validate         run the full invariant checker and report

Observability (tracing/logging never changes any schedule or table;
see docs/DESIGN_OBS.md):
  --counters         print each run's deterministic algorithm counters
                     (and add ctr:* columns to --out rows)
  --trace FILE       write a Chrome trace-event JSON of the runs
                     (load in Perfetto or chrome://tracing)
  --decision-log FILE  stream BSA's per-migration-attempt decisions as
                     JSONL (one "migration" event per attempt)
  --progress         live done/total meter on stderr (auto-disabled
                     when stderr is not a terminal)

Spec grammar reference (both registries, every option): docs/SPECS.md
)";

void report(const std::string& name, const sched::Schedule& s,
            const net::HeterogeneousCostModel& cm, bool gantt,
            const std::optional<sched::ValidationReport>& validation) {
  std::cout << "--- " << name << " ---\n";
  sched::print_listing(std::cout, s);
  if (gantt) {
    std::cout << '\n';
    sched::print_gantt(std::cout, s, 96);
  }
  const auto metrics = sched::compute_metrics(s, cm);
  std::cout << "crossing messages: " << metrics.num_crossing_messages
            << ", total hops: " << metrics.total_hops
            << ", avg processor utilisation: "
            << metrics.avg_proc_utilization << '\n';
  if (validation.has_value()) {
    std::cout << "validation: " << validation->to_string() << '\n';
  }
  std::cout << '\n';
}

/// One input graph: from a file/stdin ("external") or a workload spec.
struct Input {
  std::string workload;  ///< canonical workload spec, or "external"
  graph::TaskGraph g;
};

/// Shared observability state for one bsa_tool invocation (all fields
/// optional; a default ObsState is "everything off").
struct ObsState {
  obs::Tracer* tracer = nullptr;
  std::ostream* decision_out = nullptr;
  bool print_counters = false;
  obs::ProgressMeter* meter = nullptr;
  std::atomic<std::size_t> runs_done{0};
};

/// Schedule `input` with every requested algorithm and report/export.
/// When `keep_last` is non-null the last schedule is moved into it
/// (for --export on the final input).
/// `row_index` numbers JSONL rows consecutively across all inputs of
/// one invocation (the spec's documented "unique enumeration position").
void schedule_input(const CliParser& cli, const Input& input,
                    const net::Topology& topo, const std::string& topo_kind,
                    const std::vector<std::string>& specs,
                    runtime::ThreadPool& pool, runtime::JsonlSink* jsonl,
                    std::size_t* row_index, ObsState& obs_state,
                    std::optional<sched::Schedule>* keep_last) {
  const sched::SchedulerRegistry& registry =
      sched::SchedulerRegistry::global();
  const graph::TaskGraph& g = input.g;
  const int procs = static_cast<int>(cli.get_int("procs", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int het = static_cast<int>(cli.get_int("het", 1));
  const int link_het = static_cast<int>(cli.get_int("link-het", 1));
  const auto cm = exp::make_cost_model(g, topo, 1, het, 1, link_het,
                                       cli.get_bool("per-pair", false), seed);

  if (input.workload != runtime::kExternalWorkload) {
    std::cout << "workload: " << input.workload << '\n';
  }
  std::cout << "graph: " << g.num_tasks() << " tasks, " << g.num_edges()
            << " messages, granularity " << g.granularity() << '\n'
            << "system: " << topo.name() << ", heterogeneity U[1," << het
            << "] exec / U[1," << link_het << "] links\n\n";
  if (cli.get_bool("stats", false)) {
    graph::print_stats(std::cout, graph::compute_stats(g));
    std::cout << '\n';
  }

  const bool gantt = cli.get_bool("gantt", false);
  const bool run_validate = cli.get_bool("validate", false);

  struct Run {
    std::string spec;   ///< canonical registry spec
    std::string name;   ///< display label for the report
    std::unique_ptr<sched::Scheduler> scheduler;
    std::optional<sched::Schedule> schedule;
    obs::CounterSnapshot counters;
    /// Per-run decision collector so parallel runs never interleave in
    /// the --decision-log file; written out in request order below.
    std::unique_ptr<obs::CollectingDecisionLog> decisions;
    double wall_ms = 0;
  };
  std::vector<Run> runs;
  for (const std::string& spec : specs) {
    // resolve() rejects unknown names/options with a message listing
    // the registered choices — surfaced via main's catch block.
    Run r;
    r.scheduler = registry.resolve(spec);
    r.spec = r.scheduler->spec();
    r.name = r.scheduler->display_label();
    // Overlapping requests ("--algo all --bsa") collapse to one run per
    // canonical spec so reports and JSONL rows aren't duplicated.
    bool duplicate = false;
    for (const Run& seen : runs) duplicate = duplicate || seen.spec == r.spec;
    if (duplicate) continue;
    if (obs_state.decision_out != nullptr) {
      r.decisions = std::make_unique<obs::CollectingDecisionLog>();
    }
    runs.push_back(std::move(r));
  }

  // The graph, topology and cost model are immutable and scheduler
  // instances are stateless, so the requested algorithms can run
  // concurrently; reports stay in request order.
  pool.parallel_for(runs.size(), 1, [&](std::size_t i) {
    Run& r = runs[i];
    obs::Hooks hooks;
    hooks.tracer = obs_state.tracer;
    hooks.trace_tid =
        static_cast<std::uint32_t>(runtime::current_worker_id() + 1);
    hooks.decision_log = r.decisions.get();
    const auto t0 = std::chrono::steady_clock::now();
    sched::SchedulerResult result =
        r.scheduler->run_observed(g, topo, cm, seed, hooks);
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    r.schedule = std::move(result.schedule);
    r.counters = std::move(result.counters);
    if (obs_state.meter != nullptr) {
      obs_state.meter->update(obs_state.runs_done.fetch_add(1) + 1);
    }
  });

  // Decision logs drain serially in request order — the file is
  // deterministic however the runs were scheduled above.
  if (obs_state.decision_out != nullptr) {
    for (const Run& r : runs) {
      for (const obs::MigrationDecision& d : r.decisions->decisions()) {
        *obs_state.decision_out << obs::decision_to_jsonl(d, r.spec) << '\n';
      }
    }
  }

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    // Validate at most once per schedule; --validate prints the full
    // report and --out records the verdict.
    std::optional<sched::ValidationReport> validation;
    if (run_validate || jsonl != nullptr) {
      validation = sched::validate(*r.schedule, cm);
    }
    report(r.name, *r.schedule, cm, gantt,
           run_validate ? validation : std::nullopt);
    if (obs_state.print_counters && !r.counters.empty()) {
      std::cout << "counters (" << r.name << "):\n";
      for (const auto& [counter_name, value] : r.counters) {
        std::cout << "  " << counter_name << " = " << value << '\n';
      }
      std::cout << '\n';
    }
    if (jsonl != nullptr) {
      runtime::ScenarioResult row;
      row.spec.index = (*row_index)++;
      row.spec.workload = input.workload;
      row.spec.size = g.num_tasks();
      row.spec.granularity = g.granularity();
      row.spec.topology = topo_kind;
      row.spec.procs = procs;
      row.spec.het_lo = 1;
      row.spec.het_hi = het;
      row.spec.link_het_lo = 1;
      row.spec.link_het_hi = link_het;
      row.spec.per_pair = cli.get_bool("per-pair", false);
      row.spec.algo = r.spec;
      row.spec.instance_seed = seed;
      row.schedule_length = r.schedule->makespan();
      row.wall_ms = r.wall_ms;
      row.valid = validation->ok();
      row.counters = r.counters;
      jsonl->consume(row);
    }
  }
  if (keep_last != nullptr) *keep_last = std::move(runs.back().schedule);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bsa;
  const CliParser cli(argc, argv);
  try {
    cli.require_known({"algo", "bsa", "counters", "decision-log", "dls",
                       "dot", "eft", "export", "export-csv", "gantt", "gran",
                       "help", "het", "jobs", "link-het", "list-algos",
                       "list-workloads", "mh", "out", "per-pair", "procs",
                       "progress", "seed", "size", "stats", "threads",
                       "topology", "trace", "validate", "workload"});
    if (cli.get_bool("help", false)) {
      std::cout << kUsage;
      return 0;
    }
    const sched::SchedulerRegistry& registry =
        sched::SchedulerRegistry::global();
    const workloads::WorkloadRegistry& workload_registry =
        workloads::WorkloadRegistry::global();
    if (cli.get_bool("list-algos", false)) {
      for (const std::string& name : registry.names()) {
        std::cout << name << '\n';
      }
      return 0;
    }
    if (cli.get_bool("list-workloads", false)) {
      for (const std::string& name : workload_registry.names()) {
        std::cout << name << '\n';
      }
      return 0;
    }

    // Collect the requested workload specs ("all" = every registered
    // workload). With none, the graph comes from a file or stdin.
    std::vector<std::string> workload_specs;
    for (const std::string& value : cli.get_strings("workload")) {
      for (const std::string& item :
           workload_registry.split_spec_list(value)) {
        if (ascii_lower(item) == "all") {
          for (const std::string& name : workload_registry.names()) {
            workload_specs.push_back(name);
          }
        } else {
          workload_specs.push_back(item);
        }
      }
    }

    const int target = static_cast<int>(cli.get_int("size", 100));
    const double gran = cli.get_double("gran", 1.0);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    std::vector<Input> inputs;
    if (workload_specs.empty()) {
      graph::TaskGraph g = [&] {
        if (!cli.positional().empty()) {
          std::ifstream file(cli.positional()[0]);
          BSA_REQUIRE(file.good(),
                      "cannot open '" << cli.positional()[0] << "'");
          return graph::read_text(file);
        }
        return graph::read_text(std::cin);
      }();
      inputs.push_back({runtime::kExternalWorkload, std::move(g)});
    } else {
      BSA_REQUIRE(cli.positional().empty(),
                  "--workload and a graph file are mutually exclusive");
      for (const std::string& spec : workload_specs) {
        const auto workload = workload_registry.resolve(spec);
        // Overlapping requests ("--workload all --workload fft")
        // collapse to one input per canonical spec, mirroring --algo.
        bool duplicate = false;
        for (const Input& seen : inputs) {
          duplicate = duplicate || seen.workload == workload->spec();
        }
        if (duplicate) continue;
        inputs.push_back(
            {workload->spec(), workload->generate(target, gran, seed)});
      }
    }

    if (cli.get_bool("dot", false)) {
      for (const Input& input : inputs) {
        graph::write_dot(std::cout, input.g);
      }
      return 0;
    }

    const int procs = static_cast<int>(cli.get_int("procs", 8));
    const std::string topo_kind = cli.get_string("topology", "ring");
    net::Topology topo = exp::make_topology(topo_kind, procs, seed);

    // Collect the requested registry specs: every --algo occurrence
    // (comma lists allowed, "all" = every registered algorithm), plus the
    // legacy boolean aliases --bsa/--dls/--eft/--mh.
    std::vector<std::string> specs;
    for (const std::string& value : cli.get_strings("algo")) {
      for (const std::string& item : registry.split_spec_list(value)) {
        if (ascii_lower(item) == "all") {
          for (const std::string& name : registry.names()) {
            specs.push_back(name);
          }
        } else {
          specs.push_back(item);
        }
      }
    }
    for (const char* alias : {"bsa", "dls", "eft", "mh"}) {
      if (cli.get_bool(alias, false)) specs.push_back(alias);
    }
    if (specs.empty()) specs.push_back("bsa");

    const bool print_counters = cli.get_bool("counters", false);
    std::unique_ptr<runtime::JsonlSink> jsonl;
    if (const auto out = cli.out_path()) {
      jsonl = std::make_unique<runtime::JsonlSink>(*out, /*append=*/true,
                                                   print_counters);
    }
    const bool want_export = cli.has("export") || cli.has("export-csv");
    runtime::ThreadPool pool(cli.threads(1));

    ObsState obs_state;
    obs_state.print_counters = print_counters;
    std::unique_ptr<obs::Tracer> tracer;
    if (cli.has("trace")) {
      tracer = std::make_unique<obs::Tracer>();
      tracer->set_thread_name(0, "main");
      for (int w = 0; w < pool.size(); ++w) {
        tracer->set_thread_name(static_cast<std::uint32_t>(w + 1),
                                "worker " + std::to_string(w));
      }
      obs_state.tracer = tracer.get();
    }
    std::unique_ptr<std::ofstream> decision_out;
    if (cli.has("decision-log")) {
      const std::string path = cli.get_string("decision-log", "");
      decision_out = std::make_unique<std::ofstream>(path, std::ios::trunc);
      BSA_REQUIRE(decision_out->good(),
                  "cannot open --decision-log file '" << path << "'");
      obs_state.decision_out = decision_out.get();
    }
    // Dedupe the spec list up front (by canonical form, keeping request
    // order) so the progress total matches the runs actually performed.
    std::vector<std::string> unique_specs;
    for (const std::string& spec : specs) {
      const std::string canonical = registry.canonical(spec);
      bool duplicate = false;
      for (const std::string& seen : unique_specs) {
        duplicate = duplicate || seen == canonical;
      }
      if (!duplicate) unique_specs.push_back(canonical);
    }
    const std::unique_ptr<obs::ProgressMeter> meter = obs::maybe_progress(
        cli.get_bool("progress", false), inputs.size() * unique_specs.size(),
        "bsa_tool");
    obs_state.meter = meter.get();

    std::optional<sched::Schedule> last;
    std::size_t row_index = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool is_final = i + 1 == inputs.size();
      schedule_input(cli, inputs[i], topo, topo_kind, unique_specs, pool,
                     jsonl.get(), &row_index, obs_state,
                     want_export && is_final ? &last : nullptr);
    }
    if (meter != nullptr) meter->finish();
    if (jsonl != nullptr) jsonl->flush();
    if (decision_out != nullptr) decision_out->flush();
    if (tracer != nullptr) {
      const std::string path = cli.get_string("trace", "");
      std::ofstream tf(path, std::ios::trunc);
      BSA_REQUIRE(tf.good(), "cannot open --trace file '" << path << "'");
      tracer->write_chrome_trace(tf);
      std::cout << "wrote " << tracer->event_count() << " trace events to "
                << path << " (load in Perfetto / chrome://tracing)\n";
    }

    if (cli.has("export")) {
      std::ofstream out(cli.get_string("export", ""));
      BSA_REQUIRE(out.good(), "cannot write --export file");
      sched::write_schedule_text(out, *last);
    }
    if (cli.has("export-csv")) {
      std::ofstream out(cli.get_string("export-csv", ""));
      BSA_REQUIRE(out.good(), "cannot write --export-csv file");
      sched::write_schedule_csv(out, *last);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
