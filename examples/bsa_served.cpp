// bsa_served — the scheduling-as-a-service daemon.
//
// Listens on a local AF_UNIX socket, speaks the newline-delimited JSON
// protocol of docs/DESIGN_SERVE.md, batches concurrent schedule requests
// onto a thread pool and answers repeats from a sharded LRU cache whose
// hits are byte-identical to fresh runs. Pair it with bsa_loadgen (the
// client-side load generator) or serve::Client from C++.
//
// Runs in the foreground until a client sends {"op":"shutdown"} or the
// process receives SIGINT/SIGTERM; either way it drains queued requests,
// prints its serve.* counters and exits 0.

#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

constexpr const char* kUsage = R"(bsa_served — scheduling request daemon

Usage: bsa_served [options]

Options:
  --socket PATH      unix socket path to listen on [bsa_served.sock]
  --threads N        evaluation pool workers, 0 = all hardware [0]
  --cache N          schedule-cache capacity in entries, 0 disables [4096]
  --shards N         cache lock shards [8]
  --max-batch N      most requests dispatched per batch round [64]
  --batch-wait-us N  straggler wait before dispatching a short batch [100]
  --max-queue N      pending-queue bound; requests past it get a typed
                     "overloaded" response, 0 sheds every miss [1024]
  --write-timeout-ms N  slow-client send deadline, 0 = unbounded [0]
  --fault SPEC       arm deterministic failpoints, e.g.
                     "read:short=3,prob=0.1,seed=42;batch:delay_us=500"
                     (grammar: docs/DESIGN_FAULT.md)
  --trace FILE       write a Chrome trace-event JSON of the serving spans
  --help             show this message

Stop it with Ctrl-C or a client {"op":"shutdown"} request; both drain
in-flight work first.
)";

// Self-pipe: the signal handler only writes one byte; the watcher thread
// does the actual stop() outside async-signal context.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; the result is irrelevant (worst case
  // the pipe is already full because a signal is already pending).
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bsa::CliParser cli(argc, argv);
    if (cli.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    cli.require_known({"socket", "threads", "jobs", "cache", "shards",
                       "max-batch", "batch-wait-us", "max-queue",
                       "write-timeout-ms", "fault", "trace"});

    bsa::serve::ServerOptions options;
    options.socket_path = cli.get_string("socket", options.socket_path);
    options.threads = cli.threads(0);
    options.cache_capacity = static_cast<std::size_t>(
        cli.get_uint64("cache", options.cache_capacity));
    options.cache_shards = static_cast<std::size_t>(
        cli.get_uint64("shards", options.cache_shards));
    options.max_batch =
        static_cast<std::size_t>(cli.get_uint64("max-batch", options.max_batch));
    options.batch_wait_us = static_cast<int>(
        cli.get_int("batch-wait-us", options.batch_wait_us));
    options.max_queue = static_cast<std::size_t>(
        cli.get_uint64("max-queue", options.max_queue));
    options.write_timeout_ms = static_cast<int>(
        cli.get_int("write-timeout-ms", options.write_timeout_ms));

    // A client that vanishes mid-response must surface as a failed write
    // (socket.cpp sends with MSG_NOSIGNAL, this covers any other fd).
    std::signal(SIGPIPE, SIG_IGN);
    if (cli.has("fault")) {
      bsa::fault::configure(cli.get_string("fault", ""));
      std::cout << "failpoints armed: " << bsa::fault::active_spec()
                << std::endl;
    }

    std::unique_ptr<bsa::obs::Tracer> tracer;
    if (cli.has("trace")) {
      tracer = std::make_unique<bsa::obs::Tracer>();
      tracer->set_thread_name(0, "serve");
      options.tracer = tracer.get();
    }

    bsa::serve::Server server(std::move(options));
    server.start();
    std::cout << "bsa_served listening on " << server.socket_path()
              << std::endl;

    BSA_REQUIRE(::pipe(g_signal_pipe) == 0, "pipe() failed");
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::thread signal_watcher([&server] {
      char byte = 0;
      if (::read(g_signal_pipe[0], &byte, 1) > 0) {
        std::cout << "signal received, shutting down" << std::endl;
      }
      server.stop();
    });

    server.wait();
    server.stop();
    // Unblock the watcher if shutdown came from a client request instead
    // of a signal.
    ::close(g_signal_pipe[1]);
    signal_watcher.join();
    ::close(g_signal_pipe[0]);

    for (const auto& [name, value] : server.counters()) {
      std::cout << name << " = " << value << "\n";
    }

    if (tracer != nullptr) {
      const std::string path = cli.get_string("trace", "");
      std::ofstream tf(path, std::ios::trunc);
      BSA_REQUIRE(tf.good(), "cannot open --trace file '" << path << "'");
      tracer->write_chrome_trace(tf);
      std::cout << "wrote " << tracer->event_count() << " trace events to "
                << path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bsa_served: " << e.what() << "\n";
    return 1;
  }
}
