// lint:allow-file(wall-clock): request-latency envelope field (server_us)
// is measured wall time; every response payload stays a pure function of
// the canonical request key.
#include "serve/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"
#include "serve/eval.hpp"

namespace bsa::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

/// One live client connection. Sessions read from it; any thread may
/// respond on it (cache hits from the session thread, batch results from
/// the dispatcher), serialised by `write_mu`.
struct Server::Connection {
  explicit Connection(Fd f) : fd(std::move(f)) {}
  Fd fd;
  std::mutex write_mu;
};

/// One queued schedule request awaiting batch dispatch.
struct Server::Pending {
  Request req;
  std::string key;  ///< canonical cache key
  std::shared_ptr<Connection> conn;
  Clock::time_point t0;  ///< arrival instant, for the server_us envelope
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards) {}

Server::~Server() { stop(); }

void Server::start() {
  BSA_REQUIRE(!accept_thread_.joinable(), "Server::start called twice");
  listener_ = listen_unix(options_.socket_path);
  pool_ = std::make_unique<runtime::ThreadPool>(options_.threads);
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatcher_thread_ = std::thread([this] { dispatcher_loop(); });
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
    stop_cv_.notify_all();
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    queue_cv_.notify_all();
  }
  listener_.shutdown_both();  // wake the accept loop
  if (accept_thread_.joinable()) accept_thread_.join();
  // The dispatcher drains the queue before exiting, so every request
  // that made it in still gets its response.
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
  {
    // Wake every live session (a shutdown unblocks both a recv-ing
    // reader and a send blocked on a stuck client), then wait for the
    // detached session threads to signal their exit.
    std::unique_lock<std::mutex> lock(sessions_mu_);
    for (const auto& conn : sessions_) conn->fd.shutdown_both();
    sessions_cv_.wait(lock, [this] { return active_sessions_ == 0; });
  }
  listener_.reset();
  ::unlink(options_.socket_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    Fd fd = accept_unix(listener_);
    if (!fd.valid()) return;  // listener shut down: server stopping
    {
      const std::lock_guard<std::mutex> lock(queue_mu_);
      if (stopping_) return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    if (options_.tracer != nullptr) {
      options_.tracer->add_instant("serve.accept", "serve", 0);
    }
    if (options_.write_timeout_ms > 0) {
      set_send_timeout(fd, options_.write_timeout_ms);
    }
    auto conn = std::make_shared<Connection>(std::move(fd));
    {
      const std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(conn);
      ++active_sessions_;
    }
    // Detached so finished sessions cost nothing: each one reaps itself
    // (session_loop's exit path) and stop() waits on active_sessions_.
    std::thread([this, conn] { session_loop(conn); }).detach();
  }
}

void Server::session_loop(const std::shared_ptr<Connection>& conn) {
  LineReader reader(conn->fd);
  std::string line;
  while (reader.read_line(line, kMaxRequestBytes)) {
    handle_line(conn, line);
  }
  if (reader.overflowed()) {
    // Answer, then drop the connection: a line this long is a protocol
    // violation and the reader has lost framing.
    std::ostringstream msg;
    msg << "request exceeds " << kMaxRequestBytes << " bytes";
    errors_.fetch_add(1, std::memory_order_relaxed);
    respond(*conn, format_error(0, error_code::kOversized, msg.str()));
  }
  // Self-reap: shut the socket down and drop this session's entry from
  // the live set. The fd itself closes when the last Connection
  // reference dies — usually right here, but an in-flight batch response
  // may briefly keep it alive (its write then fails harmlessly), so a
  // long-running daemon never accumulates dead fds or threads.
  conn->fd.shutdown_both();
  const std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), conn),
                  sessions_.end());
  // Final touch of server state: once the count drops and stop() wakes,
  // the Server may be destroyed.
  --active_sessions_;
  sessions_cv_.notify_all();
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  const Clock::time_point t0 = Clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  Request req;
  std::string key;
  try {
    obs::Span parse_span(options_.tracer, "serve.parse", "serve", 0);
    req = parse_request(line);
    if (req.op == "schedule") key = canonicalize(req);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    respond(*conn, format_error(request_id(line), error_code::kBadRequest,
                                e.what()));
    return;
  }

  if (req.op == "ping") {
    respond(*conn, format_response(req.id, false, us_since(t0),
                                   "\"op\":\"ping\""));
    return;
  }
  if (req.op == "stats") {
    respond(*conn,
            format_response(req.id, false, us_since(t0), stats_payload()));
    return;
  }
  if (req.op == "shutdown") {
    respond(*conn, format_response(req.id, false, us_since(t0),
                                   "\"op\":\"shutdown\""));
    const std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
    return;
  }

  // op == "schedule": serve repeats straight from the cache on the
  // session thread — the hot path never waits for a batch slot.
  if (req.use_cache) {
    if (const auto payload = cache_.get(key)) {
      respond(*conn,
              format_response(req.id, true, us_since(t0), *payload));
      return;
    }
  }
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    if (!stopping_) {
      depth = queue_.size();
      if (depth < options_.max_queue) {
        queue_.push_back(Pending{std::move(req), std::move(key), conn, t0});
        queue_cv_.notify_one();
        return;
      }
    } else {
      errors_.fetch_add(1, std::memory_order_relaxed);
      respond(*conn, format_error(req.id, error_code::kShuttingDown,
                                  "server is shutting down"));
      return;
    }
  }
  // Admission control: shed instead of queueing unboundedly. The hint is
  // a deterministic function of the queue state — how many dispatch
  // rounds stand between this request and a free slot.
  const std::size_t rounds =
      depth / std::max<std::size_t>(1, options_.max_batch) + 1;
  const int per_round_ms = std::max(1, options_.batch_wait_us / 1000);
  errors_.fetch_add(1, std::memory_order_relaxed);
  overloads_.fetch_add(1, std::memory_order_relaxed);
  respond(*conn,
          format_error(req.id, error_code::kOverloaded, "server overloaded",
                       static_cast<int>(rounds) * per_round_ms));
}

void Server::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      if (!stopping_ && options_.batch_wait_us > 0 &&
          queue_.size() < options_.max_batch) {
        // One bounded wait for stragglers: concurrent clients land in
        // the same batch instead of one dispatch round each.
        queue_cv_.wait_for(lock,
                           std::chrono::microseconds(options_.batch_wait_us));
      }
      const std::size_t n = std::min(queue_.size(), options_.max_batch);
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.begin() +
                                           static_cast<std::ptrdiff_t>(n)));
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(n));
    }
    run_batch(batch);
  }
}

void Server::run_batch(std::vector<Pending>& batch) {
  obs::Span batch_span(options_.tracer, "serve.batch", "serve", 0);
  batch_span.arg("size", static_cast<double>(batch.size()));
  // Batch-level chaos: a delay stalls the round (overload pressure); a
  // spurious failure errors every request in the round — each still gets
  // exactly one typed response.
  const fault::Action fbatch = fault::check(fault::SiteId::kBatch);
  fault::maybe_delay(fbatch);
  const bool batch_poisoned = fbatch.kind == fault::Action::Kind::kFail;
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::int64_t hwm = batch_size_hwm_.load(std::memory_order_relaxed);
  while (static_cast<std::int64_t>(batch.size()) > hwm &&
         !batch_size_hwm_.compare_exchange_weak(
             hwm, static_cast<std::int64_t>(batch.size()),
             std::memory_order_relaxed)) {
  }

  // Identical canonical keys inside one round evaluate once — the batch
  // is a miniature ScenarioGrid sweep over its unique cells.
  struct Cell {
    const Request* req = nullptr;
    std::string payload;
    bool failed = false;
    bool use_cache = false;  ///< OR over every deduplicated request
  };
  std::map<std::string, Cell> cells;
  for (const Pending& p : batch) {
    const auto [it, inserted] = cells.try_emplace(p.key);
    if (inserted) {
      it->second.req = &p.req;
    } else {
      batch_dedup_.fetch_add(1, std::memory_order_relaxed);
    }
    // One cache:true duplicate is enough to populate the cache, even if
    // a cache:false request for the same key happened to arrive first.
    it->second.use_cache = it->second.use_cache || p.req.use_cache;
  }
  std::vector<Cell*> order;
  order.reserve(cells.size());
  for (auto& [_, cell] : cells) order.push_back(&cell);

  if (batch_poisoned) {
    for (Cell* cell : order) {
      cell->failed = true;
      cell->payload = "injected fault: spurious failure at site 'batch'";
    }
  } else {
    pool_->parallel_for(order.size(), 1, [&](std::size_t i) {
      Cell& cell = *order[i];
      obs::Hooks hooks;
      hooks.tracer = options_.tracer;
      hooks.trace_tid =
          static_cast<std::uint32_t>(runtime::current_worker_id() + 1);
      obs::Span span(options_.tracer, "serve.schedule", "serve",
                     hooks.trace_tid);
      try {
        cell.payload = evaluate_request(*cell.req, hooks);
      } catch (const std::exception& e) {
        // Poisoned-cell isolation: one failing evaluation errors only
        // the requests deduplicated into this cell.
        cell.failed = true;
        cell.payload = e.what();
      }
    });
  }

  for (const auto& [cell_key, cell] : cells) {
    if (!cell.failed && cell.use_cache) {
      // A fired cache failpoint skips the put: the entry simply is not
      // cached and the next identical request re-evaluates — population
      // failure degrades throughput, never correctness.
      if (!fault::check(fault::SiteId::kCache).fired()) {
        cache_.put(cell_key, cell.payload);
      }
    }
  }
  obs::Span respond_span(options_.tracer, "serve.respond", "serve", 0);
  for (const Pending& p : batch) {
    const Cell& cell = cells.at(p.key);
    if (cell.failed) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      respond(*p.conn,
              format_error(p.req.id, error_code::kInternal, cell.payload));
    } else {
      respond(*p.conn,
              format_response(p.req.id, false, us_since(p.t0), cell.payload));
    }
  }
}

void Server::respond(Connection& conn, const std::string& line) {
  const std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!write_all(conn.fd, line + "\n")) {
    // A failed or torn write leaves the stream unframeable (the peer may
    // have half a response buffered); shut the connection down so the
    // client sees EOF instead of garbage. The session reaps itself.
    responses_dropped_.fetch_add(1, std::memory_order_relaxed);
    conn.fd.shutdown_both();
  }
}

obs::CounterSnapshot Server::counters() const {
  const CacheStats cs = cache_.stats();
  obs::Registry reg;
  reg.add("serve.requests", requests_.load(std::memory_order_relaxed));
  reg.add("serve.errors", errors_.load(std::memory_order_relaxed));
  reg.add("serve.connections", connections_.load(std::memory_order_relaxed));
  reg.add("serve.batches", batches_.load(std::memory_order_relaxed));
  reg.add("serve.batch_size_hwm",
          batch_size_hwm_.load(std::memory_order_relaxed));
  reg.add("serve.batch_dedup", batch_dedup_.load(std::memory_order_relaxed));
  // Degradation tallies appear only once something degraded, keeping a
  // clean run's counter dump byte-identical to pre-chaos builds (the
  // same convention as the fault.* counters below).
  const std::int64_t overloads = overloads_.load(std::memory_order_relaxed);
  if (overloads > 0) reg.add("serve.overloads", overloads);
  const std::int64_t dropped =
      responses_dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) reg.add("serve.responses_dropped", dropped);
  reg.add("serve.cache.hits", cs.hits);
  reg.add("serve.cache.misses", cs.misses);
  reg.add("serve.cache.evictions", cs.evictions);
  reg.add("serve.cache.size", cs.size);
  // fault.* firing tallies ride along so chaos runs are observable
  // through the same stats op (empty when no failpoint is configured).
  reg.merge(fault::counters());
  return reg.snapshot();
}

std::string Server::stats_payload() const {
  std::ostringstream os;
  os << "\"op\":\"stats\"";
  for (const auto& [name, value] : counters()) {
    os << ",\"ctr:" << name << "\":" << value;
  }
  return os.str();
}

}  // namespace bsa::serve
