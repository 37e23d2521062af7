// bsa_loadgen — load generator for the bsa_served scheduling daemon.
//
// Replays a deterministic stream of mixed scheduling requests over
// parallel pipelined connections, skewed toward a configurable hot set
// so the daemon's LRU schedule cache has something to hit. Reports
// client-side latency percentiles, throughput and the observed cache-hit
// count on one greppable summary line.
//
// Also a handy protocol swiss-army knife:
//   --one         send a single schedule request and print the result
//                 (with --export FILE writing the schedule text, for
//                 byte-identity diffs against `bsa_tool --export`)
//   --shutdown    ask the daemon to stop

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/failpoint.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "workloads/workload_registry.hpp"

namespace {

constexpr const char* kUsage = R"(bsa_loadgen — load generator for bsa_served

Usage: bsa_loadgen [options]

Connection:
  --socket PATH      daemon socket [bsa_served.sock]
  --timeout-ms N     per-response read deadline, negative waits forever
                     [30000]

Load mode (default):
  --requests N       total requests to send [1000]
  --conns N          parallel connections [4]
  --window N         pipelined in-flight requests per connection [8]
  --seed N           base RNG seed for the request stream [1]
  --hot-keys N       distinct requests in the hot set [16]
  --hot-frac F       fraction of traffic drawn from the hot set [0.8]
  --cold-keys N      distinct requests in the cold pool [100000]
  --workloads LIST   comma-separated workload specs to mix [random]
  --algos LIST       comma-separated scheduler specs to mix [bsa]
  --size N           task count per request [50]
  --procs N          processors per request [8]
  --topology KIND    topology kind [ring]

Single-shot mode:
  --one              send one request built from the flags below and exit
  --workload SPEC    [random]   --algo SPEC  [bsa]     --gran F   [1]
  --het N  [1]       --link-het N [1]        --per-pair
  --validate         --no-cache (bypass the daemon's schedule cache)
  --export FILE      write the returned schedule text to FILE

Chaos mode (compose with load mode):
  --chaos SPEC       arm *client-process* failpoints (injected read/write
                     errno, short I/O, disconnects — docs/DESIGN_FAULT.md)
                     and switch workers from pipelining to one-at-a-time
                     RPC through the retrying client
  --retries N        retries per request in chaos mode [3]

Control:
  --shutdown         ask the daemon to shut down and exit
  --help             show this message

The summary line always reports unanswered= (requests that got no typed
response at all) and retries=; a chaos run exits nonzero only when
unanswered > 0.
)";

struct LoadOptions {
  std::string socket;
  std::uint64_t requests = 1000;
  int conns = 4;
  int window = 8;
  std::uint64_t seed = 1;
  std::uint64_t hot_keys = 16;
  double hot_frac = 0.8;
  std::uint64_t cold_keys = 100000;
  std::vector<std::string> workloads;
  std::vector<std::string> algos;
  int size = 50;
  int procs = 8;
  std::string topology = "ring";
  int timeout_ms = 30000;
  bool chaos = false;
  int retries = 3;
};

struct WorkerResult {
  std::vector<double> latencies_us;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t retries = 0;
};

/// Draw the next request in a worker's stream: hot-set member with
/// probability hot_frac (seed in [1, hot_keys]), otherwise one of
/// cold_keys colder seeds. Workload/algo cycle with the seed so the mix
/// covers every spec without adding a second random stream.
bsa::serve::Request draw_request(const LoadOptions& opt, bsa::Rng& rng) {
  bsa::serve::Request req;
  const bool hot = rng.bernoulli(opt.hot_frac);
  const std::uint64_t pool = hot ? opt.hot_keys : opt.cold_keys;
  const std::uint64_t pick =
      1 + static_cast<std::uint64_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(pool) - 1));
  req.seed = hot ? pick : opt.hot_keys + pick;
  req.workload = opt.workloads[pick % opt.workloads.size()];
  req.algo = opt.algos[pick % opt.algos.size()];
  req.topology = opt.topology;
  req.size = opt.size;
  req.procs = opt.procs;
  return req;
}

/// One connection's worth of traffic: keep `window` requests in flight,
/// matching responses to send timestamps by id.
WorkerResult run_worker(const LoadOptions& opt, int worker,
                        std::uint64_t quota) {
  using Clock = std::chrono::steady_clock;
  WorkerResult result;
  result.latencies_us.reserve(quota);
  bsa::serve::ClientOptions copt;
  copt.read_timeout_ms = opt.timeout_ms;
  auto client = bsa::serve::Client::connect(opt.socket, copt);
  bsa::Rng rng(bsa::derive_seed(opt.seed, 1000 + worker));

  std::map<std::uint64_t, Clock::time_point> in_flight;
  std::uint64_t sent = 0;
  while (sent < quota || !in_flight.empty()) {
    while (sent < quota &&
           in_flight.size() < static_cast<std::size_t>(opt.window)) {
      const std::uint64_t id = client.send(draw_request(opt, rng));
      in_flight.emplace(id, Clock::now());
      ++sent;
    }
    const bsa::serve::Response resp = client.recv();
    const auto it = in_flight.find(resp.id);
    if (it == in_flight.end()) continue;
    result.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - it->second)
            .count());
    in_flight.erase(it);
    if (resp.ok) {
      ++result.ok;
      if (resp.cached) ++result.cache_hits;
    } else {
      ++result.errors;
    }
  }
  return result;
}

/// Chaos-mode traffic: one request at a time through the retrying
/// client (pipelining cannot pair with per-request retries — a resend
/// would reorder the window). Injected client-process faults surface as
/// transport errors here; a request is `unanswered` only when every
/// retry was spent without a typed response.
WorkerResult run_worker_chaos(const LoadOptions& opt, int worker,
                              std::uint64_t quota) {
  using Clock = std::chrono::steady_clock;
  WorkerResult result;
  result.latencies_us.reserve(quota);
  bsa::serve::ClientOptions copt;
  copt.read_timeout_ms = opt.timeout_ms;
  bsa::serve::RetryPolicy policy;
  policy.max_attempts = opt.retries + 1;
  // The per-call attempt cap is the governor here; the budget only
  // guards against a fully dead daemon.
  policy.retry_budget = static_cast<int>(
      std::min<std::uint64_t>(quota * static_cast<std::uint64_t>(opt.retries),
                              1u << 20));
  policy.seed = bsa::derive_seed(opt.seed, 2000 + worker);
  bsa::serve::RetryingClient client(opt.socket, copt, policy);
  bsa::Rng rng(bsa::derive_seed(opt.seed, 1000 + worker));

  for (std::uint64_t i = 0; i < quota; ++i) {
    const bsa::serve::Request req = draw_request(opt, rng);
    const Clock::time_point t0 = Clock::now();
    try {
      const bsa::serve::Response resp = client.call(req);
      result.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      if (resp.ok) {
        ++result.ok;
        if (resp.cached) ++result.cache_hits;
      } else {
        ++result.errors;
      }
    } catch (const std::exception&) {
      ++result.unanswered;
    }
  }
  result.retries = static_cast<std::uint64_t>(client.retries_used());
  return result;
}

int run_load(const LoadOptions& opt) {
  using Clock = std::chrono::steady_clock;
  const int conns = std::max(1, opt.conns);
  std::vector<WorkerResult> results(static_cast<std::size_t>(conns));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(conns));

  const Clock::time_point t0 = Clock::now();
  for (int w = 0; w < conns; ++w) {
    // Spread the total evenly; the first (requests % conns) workers take
    // one extra so every request is sent.
    const std::uint64_t quota =
        opt.requests / static_cast<std::uint64_t>(conns) +
        (static_cast<std::uint64_t>(w) <
                 opt.requests % static_cast<std::uint64_t>(conns)
             ? 1
             : 0);
    workers.emplace_back([&opt, &results, w, quota] {
      results[static_cast<std::size_t>(w)] =
          opt.chaos ? run_worker_chaos(opt, w, quota)
                    : run_worker(opt, w, quota);
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> latencies;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t retries = 0;
  for (WorkerResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    ok += r.ok;
    errors += r.errors;
    cache_hits += r.cache_hits;
    unanswered += r.unanswered;
    retries += r.retries;
  }
  const double p50 =
      latencies.empty() ? 0 : bsa::percentile_of(latencies, 50);
  const double p99 =
      latencies.empty() ? 0 : bsa::percentile_of(latencies, 99);
  const double rps =
      wall_s > 0 ? static_cast<double>(ok + errors) / wall_s : 0;

  // One greppable line — the CI serve-smoke and chaos-smoke steps assert
  // on these fields (new fields go at the end to keep old greps working).
  std::cout << "LOADGEN ok=" << ok << " errors=" << errors
            << " cache_hits=" << cache_hits << " p50_us=" << p50
            << " p99_us=" << p99 << " rps=" << rps
            << " unanswered=" << unanswered << " retries=" << retries
            << std::endl;
  // Under chaos, typed error responses are expected (overload shedding);
  // the invariant is that nothing goes *unanswered*.
  if (opt.chaos) return unanswered == 0 ? 0 : 1;
  return errors == 0 && unanswered == 0 ? 0 : 1;
}

int run_one(const bsa::CliParser& cli, const std::string& socket) {
  bsa::serve::Request req;
  req.workload = cli.get_string("workload", req.workload);
  req.algo = cli.get_string("algo", req.algo);
  req.topology = cli.get_string("topology", req.topology);
  req.size = static_cast<int>(cli.get_int("size", req.size));
  req.gran = cli.get_double("gran", req.gran);
  req.procs = static_cast<int>(cli.get_int("procs", req.procs));
  req.het = static_cast<int>(cli.get_int("het", req.het));
  req.link_het = static_cast<int>(cli.get_int("link-het", req.link_het));
  req.per_pair = cli.get_bool("per-pair", req.per_pair);
  req.seed = cli.get_uint64("seed", req.seed);
  req.validate = cli.get_bool("validate", req.validate);
  if (cli.has("no-cache")) req.use_cache = false;

  bsa::serve::ClientOptions copt;
  copt.read_timeout_ms =
      static_cast<int>(cli.get_int("timeout-ms", copt.read_timeout_ms));
  auto client = bsa::serve::Client::connect(socket, copt);
  const bsa::serve::Response resp = client.call(req);
  if (!resp.ok) {
    std::cerr << "bsa_loadgen: server error: " << resp.error << "\n";
    return 1;
  }
  std::cout << "workload=" << resp.text("workload")
            << " algo=" << resp.text("algo") << " makespan="
            << resp.makespan() << " cached=" << (resp.cached ? 1 : 0)
            << " server_us=" << resp.server_us << std::endl;
  if (cli.has("export")) {
    const std::string path = cli.get_string("export", "");
    std::ofstream out(path, std::ios::trunc);
    BSA_REQUIRE(out.good(), "cannot open --export file '" << path << "'");
    out << resp.schedule_text();
    std::cout << "wrote schedule to " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bsa::CliParser cli(argc, argv);
    if (cli.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    cli.require_known({"socket", "timeout-ms", "requests", "conns",
                       "window", "seed", "hot-keys", "hot-frac", "cold-keys",
                       "workloads", "algos", "size", "procs", "topology",
                       "one", "workload", "algo", "gran", "het", "link-het",
                       "per-pair", "validate", "no-cache", "export", "chaos",
                       "retries", "shutdown"});
    const std::string socket = cli.get_string("socket", "bsa_served.sock");

    if (cli.has("shutdown")) {
      bsa::serve::ClientOptions copt;
      copt.read_timeout_ms =
          static_cast<int>(cli.get_int("timeout-ms", copt.read_timeout_ms));
      auto client = bsa::serve::Client::connect(socket, copt);
      const bsa::serve::Response resp = client.shutdown_server();
      std::cout << "shutdown " << (resp.ok ? "acknowledged" : "failed")
                << std::endl;
      return resp.ok ? 0 : 1;
    }
    if (cli.has("one")) return run_one(cli, socket);

    LoadOptions opt;
    opt.socket = socket;
    opt.requests = cli.get_uint64("requests", opt.requests);
    opt.conns = static_cast<int>(cli.get_int("conns", opt.conns));
    opt.window = static_cast<int>(cli.get_int("window", opt.window));
    BSA_REQUIRE(opt.window > 0, "--window expects a positive depth");
    opt.seed = cli.get_uint64("seed", opt.seed);
    opt.hot_keys = cli.get_uint64("hot-keys", opt.hot_keys);
    opt.hot_frac = cli.get_double("hot-frac", opt.hot_frac);
    BSA_REQUIRE(opt.hot_frac >= 0.0 && opt.hot_frac <= 1.0,
                "--hot-frac expects a fraction in [0,1]");
    opt.cold_keys = cli.get_uint64("cold-keys", opt.cold_keys);
    BSA_REQUIRE(opt.hot_keys > 0 && opt.cold_keys > 0,
                "--hot-keys/--cold-keys expect positive pool sizes");
    opt.size = static_cast<int>(cli.get_int("size", opt.size));
    opt.procs = static_cast<int>(cli.get_int("procs", opt.procs));
    opt.topology = cli.get_string("topology", opt.topology);
    opt.timeout_ms = static_cast<int>(cli.get_int("timeout-ms", opt.timeout_ms));
    opt.retries = static_cast<int>(cli.get_int("retries", opt.retries));
    BSA_REQUIRE(opt.retries >= 0, "--retries expects >= 0");
    if (cli.has("chaos")) {
      opt.chaos = true;
      bsa::fault::configure(cli.get_string("chaos", ""));
      std::cout << "client failpoints armed: " << bsa::fault::active_spec()
                << std::endl;
    }

    const auto& workload_registry = bsa::workloads::WorkloadRegistry::global();
    opt.workloads = workload_registry.split_spec_list(
        cli.get_string("workloads", "random"));
    const auto& scheduler_registry = bsa::sched::SchedulerRegistry::global();
    opt.algos =
        scheduler_registry.split_spec_list(cli.get_string("algos", "bsa"));
    BSA_REQUIRE(!opt.workloads.empty() && !opt.algos.empty(),
                "--workloads/--algos expect at least one spec each");

    return run_load(opt);
  } catch (const std::exception& e) {
    std::cerr << "bsa_loadgen: " << e.what() << "\n";
    return 1;
  }
}
