#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/json.hpp"
#include "obs/counters.hpp"
#include "runtime/scenario.hpp"

/// \file result_sink.hpp
/// Result sinks for the experiment runtime.
///
/// A ResultSink receives one ScenarioResult per evaluated scenario.
/// Sinks are thread-safe (consume may be called from any thread), but the
/// SweepRunner feeds them in enumeration order after the sweep so that
/// emitted files are byte-identical at any thread count.

namespace bsa::runtime {

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  /// Record one result. Implementations must be safe to call concurrently.
  virtual void consume(const ScenarioResult& row) = 0;
  /// Flush buffered output (no-op by default).
  virtual void flush() {}
};

/// Serialise one result as a single-line JSON object (JSON Lines row).
/// Numbers are formatted with round-trip precision so re-parsing yields
/// bit-identical values. With `with_counters`, each algorithm counter is
/// appended as a flat "ctr:<name>" key (flat so parse_jsonl_row still
/// round-trips the row); the default emission is unchanged so existing
/// JSONL consumers and byte-identity baselines are unaffected.
[[nodiscard]] std::string to_jsonl(const ScenarioResult& row);
[[nodiscard]] std::string to_jsonl(const ScenarioResult& row,
                                   bool with_counters);

/// JSON string/number formatting lives in common/json.hpp; re-exported
/// here for the existing bsa::runtime call sites.
using bsa::json_escape;
using bsa::json_number;

/// A parsed scalar from a flat JSONL row.
using JsonScalar = std::variant<std::nullptr_t, bool, double, std::string>;

/// Parse one flat JSON object line (string/number/bool/null values; no
/// nesting) into key -> scalar. Throws PreconditionError on malformed
/// input. This is intentionally minimal — just enough for round-trip
/// tests and downstream tooling; rows produced by to_jsonl always parse.
[[nodiscard]] std::map<std::string, JsonScalar> parse_jsonl_row(
    const std::string& line);

/// Streams rows to an ostream as JSON Lines.
class JsonlSink : public ResultSink {
 public:
  /// Write to a caller-owned stream (kept alive by the caller).
  /// `emit_counters` opts into the "ctr:<name>" columns (see to_jsonl).
  explicit JsonlSink(std::ostream& os, bool emit_counters = false);
  /// Open `path` for writing — truncated by default, appended to with
  /// `append == true` (JSONL accretes across runs). Throws
  /// PreconditionError when the file cannot be opened.
  explicit JsonlSink(const std::string& path, bool append = false,
                     bool emit_counters = false);

  void consume(const ScenarioResult& row) override;
  void flush() override;
  [[nodiscard]] std::size_t rows_written() const;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  bool emit_counters_ = false;
  mutable std::mutex mu_;
  std::size_t rows_ = 0;
};

/// Collects every row in memory (in consume order).
class CollectingSink : public ResultSink {
 public:
  void consume(const ScenarioResult& row) override;
  [[nodiscard]] const std::vector<ScenarioResult>& rows() const noexcept {
    return rows_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<ScenarioResult> rows_;
};

/// Fan out every row to several sinks (none owned).
class TeeSink : public ResultSink {
 public:
  explicit TeeSink(std::vector<ResultSink*> sinks);
  void consume(const ScenarioResult& row) override;
  void flush() override;

 private:
  std::vector<ResultSink*> sinks_;
};

/// One aggregated entry of a BENCH_*.json perf report.
struct BenchEntry {
  std::string label;   ///< e.g. "BSA/ring/100"
  std::size_t runs = 0;
  double mean_wall_ms = 0;
  /// Omitted from the JSON when unset (entries that schedule nothing of
  /// their own, such as serve phases).
  std::optional<double> mean_schedule_length;
  /// Wall-time percentiles across the runs (0 when not collected; the
  /// mean fields above are kept so older BENCH_*.json consumers keep
  /// working).
  double p50_wall_ms = 0;
  double p99_wall_ms = 0;
  /// Summed deterministic algorithm counters over the runs (empty when
  /// not collected); emitted as a nested "counters" object.
  obs::CounterSnapshot counters = {};
};

/// Write the repo's BENCH_*.json perf-trajectory format: a single JSON
/// object with bench metadata and one entry per aggregate cell.
void write_bench_json(std::ostream& os, const std::string& bench_name,
                      int threads, const std::vector<BenchEntry>& entries);

}  // namespace bsa::runtime
