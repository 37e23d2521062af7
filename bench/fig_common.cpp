#include "fig_common.hpp"

#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>

#include "common/check.hpp"
#include "common/table.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "sched/scheduler.hpp"

namespace bsa::bench {
namespace {

runtime::ScenarioGrid make_grid(const SweepConfig& cfg) {
  runtime::ScenarioGrid grid;
  // The regular suite's workload order (GE, LU, Laplace) is part of the
  // fig3/5 contract: instance seeds derive from the workload's grid
  // position, so reordering it would change the tables.
  grid.workloads = cfg.regular_suite
                       ? std::vector<std::string>{"gauss", "lu", "laplace"}
                       : std::vector<std::string>{"random"};
  grid.sizes = cfg.sizes;
  grid.granularities = cfg.granularities;
  grid.topologies = exp::paper_topologies();
  grid.algos = cfg.algos;
  grid.procs = cfg.procs;
  grid.het_lo = cfg.het_lo;
  grid.het_highs = {cfg.het_hi};
  grid.per_pair = cfg.per_pair;
  grid.seeds_per_cell = cfg.seeds_per_cell;
  grid.base_seed = cfg.base_seed;
  return grid;
}

}  // namespace

void apply_cli(const CliParser& cli, SweepConfig* config) {
  BSA_REQUIRE(config != nullptr, "null config");
  if (cli.get_bool("full", false) || exp::full_benchmarks_requested()) {
    config->sizes = {50, 100, 150, 200, 250, 300, 350, 400, 450, 500};
    config->seeds_per_cell = 3;
  }
  config->procs = static_cast<int>(cli.get_int("procs", config->procs));
  config->seeds_per_cell =
      static_cast<int>(cli.get_int("seeds", config->seeds_per_cell));
  config->per_pair = cli.get_bool("per-pair", config->per_pair);
  const sched::SchedulerRegistry& registry = sched::SchedulerRegistry::global();
  if (cli.has("algo")) {
    config->algos.clear();
    // Repeatable: every --algo occurrence contributes its comma list.
    for (const std::string& value : cli.get_strings("algo")) {
      for (const std::string& spec : registry.split_spec_list(value)) {
        config->algos.push_back(spec);
      }
    }
  }
  // Legacy alias for the pre-registry boolean column toggle; skip when an
  // EFT column is already requested so scenarios aren't evaluated twice.
  if (cli.get_bool("eft", false)) {
    bool present = false;
    for (const std::string& spec : config->algos) {
      present = present || registry.canonical(spec) == "eft";
    }
    if (!present) config->algos.push_back("eft");
  }
  config->print_csv = cli.get_bool("csv", config->print_csv);
  config->base_seed =
      static_cast<std::uint64_t>(cli.get_int("seed",
                                             static_cast<std::int64_t>(
                                                 config->base_seed)));
  config->threads = cli.threads(config->threads);
  config->out_path = cli.out_path().value_or(config->out_path);
  config->progress = cli.get_bool("progress", config->progress);
  config->trace_path = cli.get_string("trace", config->trace_path);
}

void run_and_print(const SweepConfig& cfg, const std::string& figure_name,
                   std::ostream& os) {
  BSA_REQUIRE(!cfg.sizes.empty() && !cfg.granularities.empty(),
              "empty sweep axes");
  BSA_REQUIRE(!cfg.algos.empty(), "no scheduler specs configured");

  // Canonical spec per column — the single source of truth shared with
  // the scenario enumeration and the JSONL sink — plus a display label
  // from the registry (the old hand-written name tables are gone).
  const sched::SchedulerRegistry& registry = sched::SchedulerRegistry::global();
  std::vector<std::string> columns, labels;
  for (const std::string& spec : cfg.algos) {
    columns.push_back(registry.canonical(spec));
    labels.push_back(registry.display_label(spec));
  }

  const runtime::ScenarioSet set =
      runtime::ScenarioSet::from_grid(make_grid(cfg));
  std::unique_ptr<obs::Tracer> tracer;
  if (!cfg.trace_path.empty()) tracer = std::make_unique<obs::Tracer>();
  const std::unique_ptr<obs::ProgressMeter> meter =
      obs::maybe_progress(cfg.progress, set.size(), figure_name);
  runtime::SweepOptions sweep_opts;
  sweep_opts.threads = cfg.threads;
  sweep_opts.tracer = tracer.get();
  if (meter != nullptr) sweep_opts.progress = meter->callback();
  runtime::SweepRunner runner(sweep_opts);

  os << "=== " << figure_name << ": average schedule lengths, "
     << (cfg.regular_suite ? "regular" : "random") << " graphs, x-axis = "
     << (cfg.x_axis_granularity ? "granularity" : "graph size") << " ===\n";
  os << "suite: sizes {";
  for (std::size_t i = 0; i < cfg.sizes.size(); ++i) {
    os << (i ? "," : "") << cfg.sizes[i];
  }
  os << "} granularities {";
  for (std::size_t i = 0; i < cfg.granularities.size(); ++i) {
    os << (i ? "," : "") << cfg.granularities[i];
  }
  os << "} " << cfg.procs << " processors, heterogeneity U[" << cfg.het_lo
     << "," << cfg.het_hi << "] "
     << (cfg.per_pair ? "per (task,processor) pair" : "per processor")
     << ", " << cfg.seeds_per_cell << " seed(s)/cell, " << set.size()
     << " scenarios on " << runner.threads() << " thread(s)\n\n";

  std::unique_ptr<runtime::JsonlSink> jsonl;
  if (!cfg.out_path.empty()) {
    jsonl = std::make_unique<runtime::JsonlSink>(cfg.out_path);
  }
  const std::vector<runtime::ScenarioResult> results =
      runner.run(set, jsonl.get());
  if (meter != nullptr) meter->finish();

  // topology -> canonical spec -> x value -> accumulator. Results arrive
  // in enumeration order, so aggregation is deterministic too.
  struct Cells {
    std::map<std::string, std::map<double, exp::CellMean>> by_algo;
    bool all_valid = true;
  };
  std::map<std::string, Cells> per_topology;
  for (const runtime::ScenarioResult& r : results) {
    Cells& cells = per_topology[r.spec.topology];
    cells.by_algo[r.spec.algo][r.spec.x_value(cfg.x_axis_granularity)].add(
        r.schedule_length);
    cells.all_valid = cells.all_valid && r.valid;
  }

  for (const std::string& kind : exp::paper_topologies()) {
    const net::Topology topo =
        exp::make_topology(kind, cfg.procs, cfg.base_seed);
    const Cells& cells = per_topology.at(kind);

    std::vector<std::string> headers{
        cfg.x_axis_granularity ? "granularity" : "graph size"};
    headers.push_back(labels[0]);
    if (columns.size() >= 2) {
      headers.push_back(labels[1]);
      headers.push_back(labels[1] + "/" + labels[0]);
      for (std::size_t a = 2; a < columns.size(); ++a) {
        headers.push_back(labels[a]);
      }
    }
    TextTable table(headers);
    for (const auto& [x, first_cell] : cells.by_algo.at(columns[0])) {
      table.new_row();
      if (cfg.x_axis_granularity) {
        table.cell(x, 1);
      } else {
        table.cell(static_cast<long long>(x));
      }
      const double first_mean = first_cell.mean();
      table.cell(first_mean, 1);
      if (columns.size() >= 2) {
        const double second_mean = cells.by_algo.at(columns[1]).at(x).mean();
        table.cell(second_mean, 1);
        table.cell(first_mean > 0 ? second_mean / first_mean : 0.0, 3);
        for (std::size_t a = 2; a < columns.size(); ++a) {
          table.cell(cells.by_algo.at(columns[a]).at(x).mean(), 1);
        }
      }
    }
    os << "-- " << topo.name() << " (" << topo.num_links() << " links) --\n";
    if (cfg.print_csv) {
      table.print_csv(os);
    } else {
      table.print(os);
    }
    os << (cells.all_valid ? "all schedules validated OK"
                           : "WARNING: some schedules failed validation")
       << "\n\n";
  }
  if (jsonl != nullptr) {
    os << "wrote " << jsonl->rows_written() << " JSONL rows to "
       << cfg.out_path << "\n";
  }
  if (tracer != nullptr) {
    std::ofstream tf(cfg.trace_path, std::ios::trunc);
    BSA_REQUIRE(tf.good(), "cannot open trace file '" << cfg.trace_path << "'");
    tracer->write_chrome_trace(tf);
    os << "wrote " << tracer->event_count() << " trace events to "
       << cfg.trace_path << " (load in Perfetto / chrome://tracing)\n";
  }
}

int run_figure_bench(const CliParser& cli, SweepConfig config,
                     const std::string& figure_name) {
  // Exactly the flags apply_cli reads: --help lists them, and a typo such
  // as --algoo fails instead of running the default columns.
  if (const auto exit_code = cli.check_flags(
          figure_name + " bench",
          {"full", "seeds", "procs", "per-pair", "algo", "eft", "csv",
           "seed", "threads", "jobs", "out", "progress", "trace"})) {
    return *exit_code;
  }
  try {
    apply_cli(cli, &config);
    run_and_print(config, figure_name, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

}  // namespace bsa::bench
