#include "runtime/result_sink.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace bsa::runtime {

std::string to_jsonl(const ScenarioResult& row) {
  return to_jsonl(row, /*with_counters=*/false);
}

std::string to_jsonl(const ScenarioResult& row, bool with_counters) {
  const ScenarioSpec& s = row.spec;
  std::ostringstream os;
  os << "{\"index\":" << s.index                                        //
     << ",\"workload\":\"" << json_escape(s.workload) << '"'            //
     << ",\"app\":\"" << json_escape(workload_family(s.workload)) << '"'  //
     << ",\"size\":" << s.size                                          //
     << ",\"granularity\":" << json_number(s.granularity)               //
     << ",\"topology\":\"" << json_escape(s.topology) << '"'            //
     << ",\"procs\":" << s.procs                                        //
     << ",\"het_lo\":" << s.het_lo << ",\"het_hi\":" << s.het_hi        //
     << ",\"link_het_lo\":" << s.link_het_lo                            //
     << ",\"link_het_hi\":" << s.link_het_hi                            //
     << ",\"per_pair\":" << (s.per_pair ? "true" : "false")             //
     << ",\"algo\":\"" << json_escape(s.algo) << '"'                    //
     << ",\"rep\":" << s.rep                                            //
     << ",\"seed\":" << s.instance_seed                                 //
     << ",\"schedule_length\":" << json_number(row.schedule_length)     //
     << ",\"wall_ms\":" << json_number(row.wall_ms)                     //
     << ",\"valid\":" << (row.valid ? "true" : "false");
  if (with_counters) {
    for (const auto& [name, value] : row.counters) {
      os << ",\"ctr:" << json_escape(name) << "\":" << value;
    }
  }
  os << '}';
  return os.str();
}

namespace {

/// Cursor over a JSON line with the handful of scalar productions the
/// sink emits.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  std::map<std::string, JsonScalar> parse_object() {
    std::map<std::string, JsonScalar> out;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        out[std::move(key)] = parse_scalar();
        skip_ws();
        const char c = next();
        if (c == '}') break;
        BSA_REQUIRE(c == ',', "jsonl: expected ',' or '}' at offset "
                                  << pos_ - 1 << " in: " << text_);
      }
    }
    skip_ws();
    BSA_REQUIRE(pos_ == text_.size(),
                "jsonl: trailing characters after object: " << text_);
    return out;
  }

 private:
  [[nodiscard]] char peek() const {
    BSA_REQUIRE(pos_ < text_.size(), "jsonl: unexpected end of line");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    BSA_REQUIRE(next() == c,
                "jsonl: expected '" << c << "' at offset " << pos_ - 1
                                    << " in: " << text_);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      c = next();
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          BSA_REQUIRE(pos_ + 4 <= text_.size(), "jsonl: truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            BSA_REQUIRE(std::isxdigit(static_cast<unsigned char>(h)),
                        "jsonl: bad hex digit '" << h << "' in \\u escape");
            code = code * 16 +
                   static_cast<unsigned>(
                       h <= '9' ? h - '0'
                                : std::tolower(static_cast<unsigned char>(h)) -
                                      'a' + 10);
          }
          pos_ += 4;
          BSA_REQUIRE(code < 0x80,
                      "jsonl: non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          BSA_REQUIRE(false, "jsonl: bad escape '\\" << c << "'");
      }
    }
  }

  JsonScalar parse_scalar() {
    const char c = peek();
    if (c == '"') return parse_string();
    if (literal("true")) return true;
    if (literal("false")) return false;
    if (literal("null")) return nullptr;
    // Number.
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    BSA_REQUIRE(pos_ > start, "jsonl: expected a value at offset "
                                  << start << " in: " << text_);
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    BSA_REQUIRE(end != nullptr && *end == '\0',
                "jsonl: malformed number '" << tok << "'");
    return v;
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, JsonScalar> parse_jsonl_row(const std::string& line) {
  return MiniJsonParser(line).parse_object();
}

JsonlSink::JsonlSink(std::ostream& os, bool emit_counters)
    : os_(&os), emit_counters_(emit_counters) {}

JsonlSink::JsonlSink(const std::string& path, bool append, bool emit_counters)
    : owned_(std::make_unique<std::ofstream>(
          path, append ? std::ios::app : std::ios::trunc)),
      os_(owned_.get()),
      emit_counters_(emit_counters) {
  BSA_REQUIRE(owned_->good(), "JsonlSink: cannot open '" << path << "'");
}

void JsonlSink::consume(const ScenarioResult& row) {
  const std::string line = to_jsonl(row, emit_counters_);
  const std::lock_guard<std::mutex> lock(mu_);
  *os_ << line << '\n';
  ++rows_;
}

void JsonlSink::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  os_->flush();
}

std::size_t JsonlSink::rows_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

void CollectingSink::consume(const ScenarioResult& row) {
  const std::lock_guard<std::mutex> lock(mu_);
  rows_.push_back(row);
}

TeeSink::TeeSink(std::vector<ResultSink*> sinks) : sinks_(std::move(sinks)) {
  for (ResultSink* s : sinks_) BSA_REQUIRE(s != nullptr, "TeeSink: null sink");
}

void TeeSink::consume(const ScenarioResult& row) {
  for (ResultSink* s : sinks_) s->consume(row);
}

void TeeSink::flush() {
  for (ResultSink* s : sinks_) s->flush();
}

void write_bench_json(std::ostream& os, const std::string& bench_name,
                      int threads, const std::vector<BenchEntry>& entries) {
  os << "{\"bench\":\"" << json_escape(bench_name) << "\",\"threads\":"
     << threads << ",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    os << (i ? "," : "") << "{\"label\":\"" << json_escape(e.label)
       << "\",\"runs\":" << e.runs
       << ",\"mean_wall_ms\":" << json_number(e.mean_wall_ms)
       << ",\"p50_wall_ms\":" << json_number(e.p50_wall_ms)
       << ",\"p99_wall_ms\":" << json_number(e.p99_wall_ms);
    if (e.mean_schedule_length.has_value()) {
      os << ",\"mean_schedule_length\":"
         << json_number(*e.mean_schedule_length);
    }
    if (!e.counters.empty()) {
      os << ",\"counters\":{";
      for (std::size_t c = 0; c < e.counters.size(); ++c) {
        os << (c ? "," : "") << '"' << json_escape(e.counters[c].first)
           << "\":" << e.counters[c].second;
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}\n";
}

}  // namespace bsa::runtime
