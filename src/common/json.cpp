#include "common/json.hpp"

#include <cmath>
#include <cstdio>

namespace bsa {

void append_json_escaped(std::string& out, std::string_view s) {
  // Plain characters are copied in runs, between the ones that escape.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escaped = nullptr;
    switch (c) {
      case '"':
        escaped = "\\\"";
        break;
      case '\\':
        escaped = "\\\\";
        break;
      case '\n':
        escaped = "\\n";
        break;
      case '\r':
        escaped = "\\r";
        break;
      case '\t':
        escaped = "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (escaped != nullptr) {
      out += escaped;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

std::string json_number(double v) {
  // JSON has no inf/nan literals; emit null so a row with a non-finite
  // metric (e.g. the granularity of an edge-free external graph) stays
  // parseable instead of corrupting the whole JSONL file.
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace bsa
