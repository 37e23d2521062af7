/// Scheduling-service latency/throughput benchmark: an in-process
/// serve::Server on a temp socket, hammered through real AF_UNIX client
/// connections in two phases.
///
///   cold — every request carries a distinct seed, so each one misses
///          the schedule cache and pays for a full BSA run;
///   hot  — requests are drawn from a small hot set that the cold phase
///          of the same keys warmed, so (almost) every one is a cache
///          hit answered inline on the session thread.
///
/// The hot/cold p50 gap is the whole point of the daemon's cache; both
/// phases land in BENCH_serve.json (the repo's BENCH_*.json trajectory
/// schema) with client-side p50/p99 wall latency and the daemon's
/// serve.* counters accrued during that phase.
///
/// Flags: --requests N per phase, --hot-keys N, --conns N, --window N,
/// --threads N (daemon pool), --size N, --out FILE, --fault SPEC
/// (arm failpoints — docs/DESIGN_FAULT.md; typed error responses are
/// then tolerated and tallied instead of fatal). With no --fault the
/// output is byte-identical to a build without the fault layer, which
/// is how CI pins the zero-cost-when-off contract. --help lists the
/// flags; any other flag is an error.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fault/failpoint.hpp"
#include "obs/counters.hpp"
#include "runtime/result_sink.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct PhaseResult {
  std::vector<double> latencies_us;
  std::uint64_t cache_hits = 0;
  std::uint64_t errors = 0;  ///< typed error responses (chaos runs only)
  double wall_s = 0;
  bsa::obs::CounterSnapshot counters;  ///< daemon counters of this phase
};

/// Seed for request i of a phase: the hot phase cycles a small set, the
/// cold phase never repeats.
std::uint64_t phase_seed(bool hot, std::uint64_t i, std::uint64_t hot_keys) {
  return hot ? 1 + i % hot_keys : 1000000 + i;
}

/// Counters attributable to one phase: the difference of snapshots taken
/// around it. The level gauges (cache size, batch-size high-water mark)
/// keep their end-of-phase value; a difference of levels means nothing.
bsa::obs::CounterSnapshot phase_counters(
    const bsa::obs::CounterSnapshot& before,
    const bsa::obs::CounterSnapshot& after) {
  bsa::obs::CounterSnapshot out;
  for (const auto& [name, value] : after) {
    const bool level =
        name == "serve.cache.size" || name == "serve.batch_size_hwm";
    out.emplace_back(name, level ? value
                                 : value - bsa::obs::snapshot_value(before, name));
  }
  return out;
}

PhaseResult run_phase(const std::string& socket, bool hot,
                      std::uint64_t requests, std::uint64_t hot_keys,
                      int conns, int window, int size) {
  PhaseResult result;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(conns));
  std::vector<std::uint64_t> hits(static_cast<std::size_t>(conns), 0);
  std::vector<std::uint64_t> errs(static_cast<std::size_t>(conns), 0);
  std::vector<std::thread> workers;
  const Clock::time_point t0 = Clock::now();
  for (int w = 0; w < conns; ++w) {
    const std::uint64_t lo =
        requests * static_cast<std::uint64_t>(w) /
        static_cast<std::uint64_t>(conns);
    const std::uint64_t hi =
        requests * (static_cast<std::uint64_t>(w) + 1) /
        static_cast<std::uint64_t>(conns);
    workers.emplace_back([&, w, lo, hi] {
      auto client = bsa::serve::Client::connect(socket);
      std::map<std::uint64_t, Clock::time_point> in_flight;
      std::uint64_t next = lo;
      while (next < hi || !in_flight.empty()) {
        while (next < hi &&
               in_flight.size() < static_cast<std::size_t>(window)) {
          bsa::serve::Request req;
          req.size = size;
          req.seed = phase_seed(hot, next, hot_keys);
          in_flight.emplace(client.send(req), Clock::now());
          ++next;
        }
        const bsa::serve::Response resp = client.recv();
        const auto it = in_flight.find(resp.id);
        BSA_REQUIRE(it != in_flight.end(),
                    "response for unknown id " << resp.id);
        // Under an armed fault spec, typed errors are the experiment;
        // without one they are a bench bug.
        BSA_REQUIRE(resp.ok || bsa::fault::enabled(),
                    "server error: " << resp.error);
        if (!resp.ok) ++errs[static_cast<std::size_t>(w)];
        lat[static_cast<std::size_t>(w)].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      it->second)
                .count());
        if (resp.cached) ++hits[static_cast<std::size_t>(w)];
        in_flight.erase(it);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (int w = 0; w < conns; ++w) {
    auto& v = lat[static_cast<std::size_t>(w)];
    result.latencies_us.insert(result.latencies_us.end(), v.begin(), v.end());
    result.cache_hits += hits[static_cast<std::size_t>(w)];
    result.errors += errs[static_cast<std::size_t>(w)];
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bsa;
  try {
    const CliParser cli(argc, argv);
    if (const auto exit_code = cli.check_flags(
            "bench_serve", {"requests", "hot-keys", "conns", "window",
                            "threads", "jobs", "size", "out", "fault"})) {
      return *exit_code;
    }
    const std::uint64_t requests = cli.get_uint64("requests", 400);
    const std::uint64_t hot_keys = cli.get_uint64("hot-keys", 16);
    const int conns = static_cast<int>(cli.get_int("conns", 4));
    const int window = static_cast<int>(cli.get_int("window", 8));
    const int size = static_cast<int>(cli.get_int("size", 50));
    BSA_REQUIRE(requests > 0 && hot_keys > 0 && conns > 0 && window > 0,
                "counts must be positive");

    if (cli.has("fault")) {
      fault::configure(cli.get_string("fault", ""));
      std::cout << "failpoints armed: " << fault::active_spec() << "\n";
    }

    const int threads = cli.threads(0);
    serve::ServerOptions options;
    options.socket_path =
        "bsa_bench_serve." + std::to_string(::getpid()) + ".sock";
    options.threads = threads;
    bsa::serve::Server server(std::move(options));
    server.start();

    std::cout << "=== scheduling-service latency: cold misses vs hot "
                 "cache hits ===\n"
              << requests << " requests per phase, " << conns
              << " connections x window " << window << ", " << size
              << "-task random/bsa/ring requests, hot set " << hot_keys
              << " keys\n\n";

    // Warm the hot set so the hot phase measures pure cache-hit latency.
    {
      auto client = serve::Client::connect(server.socket_path());
      for (std::uint64_t k = 0; k < hot_keys; ++k) {
        serve::Request req;
        req.size = size;
        req.seed = phase_seed(true, k, hot_keys);
        const serve::Response resp = client.call(req);
        BSA_REQUIRE(resp.ok || fault::enabled(),
                    "warmup failed: " << resp.error);
      }
    }

    const auto measure = [&](bool hot_phase) {
      const obs::CounterSnapshot before = server.counters();
      PhaseResult r = run_phase(server.socket_path(), hot_phase, requests,
                                hot_keys, conns, window, size);
      r.counters = phase_counters(before, server.counters());
      return r;
    };
    const PhaseResult cold = measure(false);
    const PhaseResult hot = measure(true);
    server.stop();

    TextTable table({"phase", "requests", "cache hits", "p50 us", "p99 us",
                     "k req/s"});
    std::vector<runtime::BenchEntry> entries;
    for (const auto& [name, phase] :
         std::vector<std::pair<std::string, const PhaseResult*>>{
             {"serve/cold", &cold}, {"serve/hot", &hot}}) {
      StatAccumulator wall;
      for (const double us : phase->latencies_us) wall.add(us / 1000.0);
      const double p50 = percentile_of(phase->latencies_us, 50) / 1000.0;
      const double p99 = percentile_of(phase->latencies_us, 99) / 1000.0;
      table.new_row()
          .cell(name)
          .cell(static_cast<long long>(phase->latencies_us.size()))
          .cell(static_cast<long long>(phase->cache_hits))
          .cell(p50 * 1000.0, 1)
          .cell(p99 * 1000.0, 1)
          .cell(static_cast<double>(phase->latencies_us.size()) /
                    phase->wall_s / 1000.0,
                2);
      runtime::BenchEntry e;
      e.label = name;
      e.runs = phase->latencies_us.size();
      e.mean_wall_ms = wall.mean();
      e.p50_wall_ms = p50;
      e.p99_wall_ms = p99;
      e.counters = phase->counters;
      entries.push_back(std::move(e));
    }
    table.print(std::cout);

    if (fault::enabled()) {
      std::cout << "\nchaos: cold errors=" << cold.errors
                << " hot errors=" << hot.errors << "\n";
    }
    const double cold_p50 = percentile_of(cold.latencies_us, 50);
    const double hot_p50 = percentile_of(hot.latencies_us, 50);
    BSA_REQUIRE(hot.cache_hits > 0 || fault::enabled(),
                "hot phase produced no cache hits");
    std::cout << "\nhot-set p50 speedup: "
              << (hot_p50 > 0 ? cold_p50 / hot_p50 : 0) << "x ("
              << cold_p50 << "us cold vs " << hot_p50 << "us hot)\n";

    const std::string report_path =
        cli.get_string("out", "BENCH_serve.json");
    std::ofstream report(report_path, std::ios::trunc);
    BSA_REQUIRE(report.good(), "cannot write " << report_path);
    runtime::write_bench_json(report, "serve", threads, entries);
    std::cout << "wrote " << entries.size() << " entries to " << report_path
              << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_serve: " << e.what() << "\n";
    return 1;
  }
}
