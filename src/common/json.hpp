#pragma once

#include <string>
#include <string_view>

/// \file json.hpp
/// The two JSON formatting primitives shared by every emitter in the
/// repo (JSONL result rows, BENCH_*.json reports, Chrome trace export,
/// decision logs). Formatting is locale-independent and round-trip
/// stable, so emitted artefacts are byte-identical across runs and
/// platforms with the same libc printf.

namespace bsa {

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes added).
[[nodiscard]] std::string json_escape(const std::string& s);
/// Append json_escape(s) to `out`.
void append_json_escaped(std::string& out, std::string_view s);

/// Format a double with round-trip (max_digits10) precision; integral
/// values print without an exponent or trailing zeros. Non-finite
/// values print as null (JSON has no inf/nan literals), keeping the
/// surrounding document parseable.
[[nodiscard]] std::string json_number(double v);

}  // namespace bsa
