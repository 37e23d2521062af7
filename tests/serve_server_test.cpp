// End-to-end tests of the scheduling-service daemon core: a real
// serve::Server on a unique temp AF_UNIX socket per test, driven through
// real client connections. Protocol-robustness cases (malformed JSON,
// unknown names, oversized lines, mid-request disconnects) assert the
// daemon answers with errors and keeps serving — it must never crash.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "serve/client.hpp"
#include "serve/eval.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace bsa::serve {
namespace {

std::string unique_socket(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/bsa_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter.fetch_add(1)) + ".sock";
}

ServerOptions small_options(const std::string& tag) {
  ServerOptions options;
  options.socket_path = unique_socket(tag);
  options.threads = 2;
  options.cache_capacity = 64;
  options.cache_shards = 4;
  options.batch_wait_us = 0;
  return options;
}

Request small_request() {
  Request req;
  req.size = 20;
  req.procs = 4;
  req.seed = 3;
  return req;
}

TEST(ServeServer, PingStatsAndCounters) {
  Server server(small_options("ping"));
  server.start();
  auto client = Client::connect(server.socket_path());

  const Response pong = client.ping();
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.text("op"), "ping");

  const Response stats = client.stats();
  EXPECT_TRUE(stats.ok);
  EXPECT_GE(stats.number("ctr:serve.requests", -1), 1);
  EXPECT_GE(stats.number("ctr:serve.connections", -1), 1);
  server.stop();
}

TEST(ServeServer, ScheduleMatchesLocalEvaluationBitForBit) {
  Server server(small_options("sched"));
  server.start();
  auto client = Client::connect(server.socket_path());

  Request req = small_request();
  const Response resp = client.call(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_FALSE(resp.cached);
  EXPECT_GT(resp.makespan(), 0);

  // The daemon's payload must match an in-process evaluation of the same
  // canonical request — same schedule text, same makespan, same counters.
  Request local = small_request();
  (void)canonicalize(local);
  const Response fresh =
      parse_response(format_response(resp.id, false, 0, evaluate_request(local)));
  EXPECT_EQ(resp.schedule_text(), fresh.schedule_text());
  EXPECT_EQ(resp.makespan(), fresh.makespan());
  EXPECT_EQ(resp.payload.size(), fresh.payload.size());
  server.stop();
}

TEST(ServeServer, EvaluatedPayloadsArePinned) {
  // A served payload (makespan, validity, counters and the schedule
  // text) must not change by a byte: FNV-1a digests of evaluate_request
  // for BSA, SA on BSA, DLS and HEFT, validated and not, on random graphs
  // on hypercube-16 and communication-heavy gauss graphs on ring-8.
  struct Pin {
    const char* workload;
    const char* topology;
    int procs;
    double gran;
    const char* algo;
    bool validate;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {"random", "hypercube", 16, 1.0, "bsa", false, 415841828000551473ULL},
      {"random", "hypercube", 16, 1.0, "bsa", true, 9566943622984070609ULL},
      {"random", "hypercube", 16, 1.0, "sa:init=bsa", false,
       10159334659705349440ULL},
      {"random", "hypercube", 16, 1.0, "sa:init=bsa", true,
       8191286656752652810ULL},
      {"random", "hypercube", 16, 1.0, "dls", false, 2823681339984443741ULL},
      {"random", "hypercube", 16, 1.0, "dls", true, 9787174117950102733ULL},
      {"random", "hypercube", 16, 1.0, "heft", false, 12067772695849283582ULL},
      {"random", "hypercube", 16, 1.0, "heft", true, 10297708317327004846ULL},
      {"gauss", "ring", 8, 0.3, "bsa", false, 415252386952413769ULL},
      {"gauss", "ring", 8, 0.3, "bsa", true, 441556548775506601ULL},
      {"gauss", "ring", 8, 0.3, "sa:init=bsa", false, 922128995936239871ULL},
      {"gauss", "ring", 8, 0.3, "sa:init=bsa", true, 2146838507107639301ULL},
      {"gauss", "ring", 8, 0.3, "dls", false, 768780280927737634ULL},
      {"gauss", "ring", 8, 0.3, "dls", true, 2971184634353752804ULL},
      {"gauss", "ring", 8, 0.3, "heft", false, 383799137076770712ULL},
      {"gauss", "ring", 8, 0.3, "heft", true, 11074085394279543714ULL},
  };
  for (const Pin& pin : pins) {
    Request req;
    req.workload = pin.workload;
    req.algo = pin.algo;
    req.topology = pin.topology;
    req.procs = pin.procs;
    req.size = 50;
    req.gran = pin.gran;
    req.het = 4;
    req.link_het = 2;
    req.seed = 11;
    req.validate = pin.validate;
    (void)canonicalize(req);
    std::uint64_t digest = 1469598103934665603ULL;
    for (const unsigned char c : evaluate_request(req)) {
      digest = (digest ^ c) * 1099511628211ULL;
    }
    EXPECT_EQ(digest, pin.digest)
        << pin.workload << ' ' << pin.algo << " validate=" << pin.validate;
  }
}

TEST(ServeServer, RepeatRequestIsCachedAndPayloadIdentical) {
  Server server(small_options("cache"));
  server.start();
  auto client = Client::connect(server.socket_path());

  const Response first = client.call(small_request());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cached);

  const Response second = client.call(small_request());
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cached);
  // The payload (everything outside the envelope) is byte-derived from
  // the same cached string, so every field matches exactly.
  EXPECT_EQ(first.payload, second.payload);

  // cache:false bypasses the cache even when the entry is resident.
  Request uncached = small_request();
  uncached.use_cache = false;
  const Response third = client.call(uncached);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_FALSE(third.cached);
  EXPECT_EQ(third.payload, first.payload);
  server.stop();
}

TEST(ServeServer, MalformedJsonGetsErrorAndConnectionSurvives) {
  Server server(small_options("badjson"));
  server.start();
  auto client = Client::connect(server.socket_path());

  Fd raw = connect_unix(server.socket_path());
  ASSERT_TRUE(write_all(raw, "this is not json\n"));
  LineReader reader(raw);
  std::string line;
  ASSERT_TRUE(reader.read_line(line, kMaxRequestBytes));
  const Response err = parse_response(line);
  EXPECT_FALSE(err.ok);
  EXPECT_FALSE(err.error.empty());

  // Same connection still serves valid requests afterwards.
  ASSERT_TRUE(write_all(raw, "{\"op\":\"ping\",\"id\":9}\n"));
  ASSERT_TRUE(reader.read_line(line, kMaxRequestBytes));
  const Response pong = parse_response(line);
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, 9u);
  server.stop();
}

TEST(ServeServer, OverflowingGranularityIsABadRequest) {
  Server server(small_options("gran"));
  server.start();
  ClientOptions options;
  options.read_timeout_ms = 5000;
  auto client = Client::connect(server.socket_path(), options);

  // Rejected by parse_request, before the request is canonicalised. The
  // error reply must carry the request's own id, or Client::call drops
  // it as unmatched and waits out its read timeout. A gran of 1e-17
  // overflows the int64 cost conversion (1.5 x avg exec / 1e-17).
  Request bad_gran = small_request();
  bad_gran.gran = 1e-17;
  Request bad_size = small_request();
  bad_size.size = 0;
  Request bad_procs = small_request();
  bad_procs.procs = 0;
  std::uint64_t id = 40;
  for (const auto& [req, field] :
       {std::pair<Request, const char*>{bad_gran, "gran"},
        std::pair<Request, const char*>{bad_size, "size"},
        std::pair<Request, const char*>{bad_procs, "procs"}}) {
    Request sent = req;
    sent.id = ++id;
    const Response err = client.call(sent);
    EXPECT_FALSE(err.ok) << field;
    EXPECT_EQ(err.id, id) << field;
    EXPECT_EQ(err.code, error_code::kBadRequest) << field << ": " << err.error;
    EXPECT_NE(err.error.find(field), std::string::npos) << err.error;
  }

  // The future-based client resolves to the same typed error.
  AsyncClient async(server.socket_path());
  auto future = async.submit(bad_gran, 5000);
  const Response async_err = future.get();
  EXPECT_FALSE(async_err.ok);
  EXPECT_EQ(async_err.code, error_code::kBadRequest) << async_err.error;

  // Same connection still answers afterwards.
  EXPECT_TRUE(client.ping().ok);
  server.stop();
}

TEST(ServeServer, ImpossibleTopologyIsABadRequestAnsweredAtOnce) {
  // Combinations make_topology cannot build are rejected at canonicalize
  // time, before they reach a worker: a hypercube of 2e9 processors must
  // not tie one up.
  Server server(small_options("topo"));
  server.start();
  ClientOptions options;
  options.read_timeout_ms = 5000;
  auto client = Client::connect(server.socket_path(), options);
  const std::vector<std::pair<std::string, int>> cases{
      {"hypercube", 2000000000}, {"hypercube", 12}, {"ring", 1},
      {"random", 2},             {"star", 1},       {"clique", 1}};
  for (const auto& [kind, procs] : cases) {
    Request req = small_request();
    req.topology = kind;
    req.procs = procs;
    const auto t0 = std::chrono::steady_clock::now();
    const Response err = client.call(req);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << kind << " " << procs;
    EXPECT_FALSE(err.ok) << kind << " " << procs;
    EXPECT_EQ(err.code, error_code::kBadRequest) << err.error;
    EXPECT_NE(err.error.find(kind), std::string::npos) << err.error;
  }
  EXPECT_TRUE(client.ping().ok);
  server.stop();
}

TEST(ServeServer, EcubeOnANonHypercubeIsABadRequestAndNotCached) {
  // Once answered `internal` by the worker that ran BSA; now rejected at
  // canonicalize time, never cached, and the connection keeps serving.
  Server server(small_options("ecube"));
  server.start();
  auto client = Client::connect(server.socket_path());
  Request req = small_request();
  req.algo = "bsa:route=ecube";
  req.topology = "ring";
  for (int i = 0; i < 2; ++i) {
    const Response err = client.call(req);
    EXPECT_FALSE(err.ok);
    EXPECT_FALSE(err.cached);
    EXPECT_EQ(err.code, error_code::kBadRequest) << err.error;
    EXPECT_NE(err.error.find("route=ecube"), std::string::npos) << err.error;
  }
  EXPECT_TRUE(client.ping().ok);
  EXPECT_EQ(client.stats().number("ctr:serve.cache.size", -1), 0);
  req.topology = "hypercube";
  const Response ok = client.call(req);
  EXPECT_TRUE(ok.ok) << ok.error;
  server.stop();
}

TEST(ServeServer, UnknownSpecNamesListValidChoices) {
  Server server(small_options("unknown"));
  server.start();
  auto client = Client::connect(server.socket_path());

  Request bad_algo = small_request();
  bad_algo.algo = "nosuch";
  const Response r1 = client.call(bad_algo);
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("nosuch"), std::string::npos) << r1.error;
  EXPECT_NE(r1.error.find("bsa"), std::string::npos) << r1.error;

  Request bad_workload = small_request();
  bad_workload.workload = "nosuchload";
  const Response r2 = client.call(bad_workload);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("nosuchload"), std::string::npos) << r2.error;
  EXPECT_NE(r2.error.find("fft"), std::string::npos) << r2.error;

  Request bad_topo = small_request();
  bad_topo.topology = "torus";
  const Response r3 = client.call(bad_topo);
  EXPECT_FALSE(r3.ok);
  EXPECT_NE(r3.error.find("torus"), std::string::npos) << r3.error;
  EXPECT_NE(r3.error.find("hypercube"), std::string::npos) << r3.error;

  // A removed engine-selection option is an unknown key, not an error
  // inside the run.
  Request removed_option = small_request();
  removed_option.algo = "bsa:rollback=snapshot";
  const Response r4 = client.call(removed_option);
  EXPECT_FALSE(r4.ok);
  EXPECT_EQ(r4.code, error_code::kBadRequest) << r4.error;
  EXPECT_NE(r4.error.find("unknown option 'rollback'"), std::string::npos)
      << r4.error;

  // The daemon kept serving through all four rejections.
  EXPECT_TRUE(client.ping().ok);
  server.stop();
}

TEST(ServeServer, BadRequestErrorsNameNoSourceFile) {
  // bad_request replies pass the PreconditionError text on; it names
  // what was wrong with the request, not where the check sits.
  Server server(small_options("noloc"));
  server.start();
  auto client = Client::connect(server.socket_path());
  std::vector<Request> bad(4, small_request());
  bad[0].algo = "bsa:gate=sometimes";
  bad[1].algo = "dls:seed=-3";
  bad[2].workload = "fft:nosuch=1";
  bad[3].topology = "ring";
  bad[3].procs = 1;
  for (const Request& req : bad) {
    const Response err = client.call(req);
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.code, error_code::kBadRequest) << err.error;
    EXPECT_FALSE(err.error.empty());
    EXPECT_EQ(err.error.find(".cpp:"), std::string::npos) << err.error;
    EXPECT_EQ(err.error.find(".hpp:"), std::string::npos) << err.error;
  }
  EXPECT_TRUE(client.ping().ok);
  server.stop();
}

TEST(ServeServer, OversizedRequestAnsweredThenDropped) {
  Server server(small_options("oversize"));
  server.start();

  Fd raw = connect_unix(server.socket_path());
  // Exceed kMaxRequestBytes without ever sending a newline: the server
  // must answer with an error and close, not buffer forever or crash.
  const std::string chunk(1 << 16, 'x');
  for (int i = 0; i < 20; ++i) {
    if (!write_all(raw, chunk)) break;  // server may already have closed
  }
  LineReader reader(raw);
  std::string line;
  if (reader.read_line(line, kMaxRequestBytes)) {
    const Response err = parse_response(line);
    EXPECT_FALSE(err.ok);
    EXPECT_NE(err.error.find("exceeds"), std::string::npos) << err.error;
  }

  // Daemon still alive for new connections.
  auto client = Client::connect(server.socket_path());
  EXPECT_TRUE(client.ping().ok);
  server.stop();
}

TEST(ServeServer, MidRequestDisconnectLeavesServerServing) {
  Server server(small_options("disconnect"));
  server.start();
  {
    Fd raw = connect_unix(server.socket_path());
    // Half a request, no newline — then vanish.
    ASSERT_TRUE(write_all(raw, "{\"op\":\"sched"));
  }
  {
    // A full request whose response is never read — then vanish; the
    // daemon's write must not kill it (SIGPIPE) or wedge the batch.
    Fd raw = connect_unix(server.socket_path());
    ASSERT_TRUE(write_all(raw, request_to_json(small_request()) + "\n"));
  }
  auto client = Client::connect(server.socket_path());
  const Response resp = client.call(small_request());
  EXPECT_TRUE(resp.ok) << resp.error;
  server.stop();
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(ServeServer, DisconnectedSessionsReleaseFdsWhileRunning) {
  // Regression: session fds and threads used to be reclaimed only at
  // stop(), so a long-running daemon leaked one fd per past client until
  // accept() died with EMFILE. Churn connections and require the
  // process-wide fd count to return to its baseline while the server is
  // still serving.
  Server server(small_options("churn"));
  server.start();
  auto client = Client::connect(server.socket_path());
  ASSERT_TRUE(client.ping().ok);

  const std::size_t baseline = open_fd_count();
  for (int round = 0; round < 3; ++round) {
    {
      std::vector<Fd> conns;
      for (int i = 0; i < 16; ++i) {
        conns.push_back(connect_unix(server.socket_path()));
      }
    }  // all 16 clients vanish; their sessions must self-reap
    // Assert the count *returns* to baseline before the deadline rather
    // than re-sampling after the poll: a connection the server accepts
    // only after the client already closed bumps the count transiently,
    // and that late-accept blip is not a leak.
    bool settled = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (open_fd_count() <= baseline) {
        settled = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(settled) << "round " << round << ": fds never returned to "
                         << baseline << " (now " << open_fd_count() << ")";
  }
  // Still serving after all that churn.
  EXPECT_TRUE(client.ping().ok);
  server.stop();
}

TEST(ServeServer, MixedCacheFlagsInOneBatchStillPopulateCache) {
  // Regression: batch dedup kept only the first request's use_cache, so
  // a cache:false arrival racing ahead of a cache:true one for the same
  // key could leave the result uncached. Whatever the interleaving, once
  // both complete the entry must be resident.
  ServerOptions options = small_options("mixedcache");
  options.batch_wait_us = 2000;  // encourage both submits into one batch
  Server server(std::move(options));
  server.start();

  AsyncClient async(server.socket_path());
  Request no_cache = small_request();
  no_cache.use_cache = false;
  auto f1 = async.submit(no_cache);
  auto f2 = async.submit(small_request());  // use_cache defaults true
  ASSERT_TRUE(f1.get().ok);
  ASSERT_TRUE(f2.get().ok);

  auto client = Client::connect(server.socket_path());
  const Response repeat = client.call(small_request());
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_TRUE(repeat.cached);
  server.stop();
}

TEST(ServeServer, AsyncClientPipelinesAndBatchDedupes) {
  ServerOptions options = small_options("async");
  options.batch_wait_us = 2000;  // give concurrent submits a batch window
  Server server(std::move(options));
  server.start();

  AsyncClient client(server.socket_path());
  std::vector<std::future<Response>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    Request req = small_request();
    req.seed = 100 + static_cast<std::uint64_t>(i % 4);  // 4 unique keys
    req.use_cache = false;  // force evaluation so in-batch dedupe is the
                            // only sharing mechanism
    futures.push_back(client.submit(req));
  }
  std::string schedule_for_seed_100;
  for (int i = 0; i < 16; ++i) {
    const Response resp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    if (i % 4 == 0) {
      if (schedule_for_seed_100.empty()) {
        schedule_for_seed_100 = resp.schedule_text();
      } else {
        EXPECT_EQ(resp.schedule_text(), schedule_for_seed_100);
      }
    }
  }
  EXPECT_EQ(client.in_flight(), 0u);
  server.stop();
}

TEST(ServeServer, ShutdownOpStopsWaitAndAnswersFirst) {
  Server server(small_options("shutdown"));
  server.start();
  std::thread waiter([&server] {
    server.wait();
    server.stop();
  });
  auto client = Client::connect(server.socket_path());
  const Response ack = client.shutdown_server();
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(ack.text("op"), "shutdown");
  waiter.join();
  // Socket file is gone after a clean stop.
  EXPECT_NE(::access(server.socket_path().c_str(), F_OK), 0);
}

TEST(ServeServer, CountersReflectTraffic) {
  Server server(small_options("counters"));
  server.start();
  auto client = Client::connect(server.socket_path());
  (void)client.call(small_request());
  (void)client.call(small_request());
  Request bad = small_request();
  bad.algo = "nosuch";
  (void)client.call(bad);
  server.stop();

  const obs::CounterSnapshot snapshot = server.counters();
  const auto value = [&snapshot](const std::string& name) -> std::int64_t {
    for (const auto& [n, v] : snapshot) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_EQ(value("serve.requests"), 3);
  EXPECT_EQ(value("serve.cache.hits"), 1);
  EXPECT_GE(value("serve.cache.misses"), 1);
  EXPECT_EQ(value("serve.errors"), 1);
  EXPECT_GE(value("serve.batches"), 1);
  EXPECT_GE(value("serve.batch_size_hwm"), 1);
}

}  // namespace
}  // namespace bsa::serve
