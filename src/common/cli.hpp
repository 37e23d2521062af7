#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file cli.hpp
/// Minimal command-line flag parser for the example and benchmark binaries.
/// Supports `--name=value`, `--name value` and boolean `--name` forms.

namespace bsa {

/// Strict literal parsers shared by the CLI flags and the scheduler
/// registry's option values: the whole string must match, std::nullopt
/// on anything else (trailing garbage, overflow, wrong base). Callers
/// attach their own error message.
[[nodiscard]] std::optional<bool> parse_bool_literal(const std::string& text);
[[nodiscard]] std::optional<std::int64_t> parse_int_literal(
    const std::string& text);
[[nodiscard]] std::optional<std::uint64_t> parse_uint64_literal(
    const std::string& text);
[[nodiscard]] std::optional<double> parse_double_literal(
    const std::string& text);

class CliParser {
 public:
  /// Parse argv; unrecognised positional arguments are collected in order.
  /// Throws PreconditionError for malformed flags (e.g. `--=x`).
  CliParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Throw PreconditionError naming every given flag that is not in
  /// `known` — for a binary that declares its flags, so a typo such as
  /// `--hett 2` fails instead of running with the default.
  void require_known(std::initializer_list<std::string_view> known) const;

  /// The flag check of a binary that declares its flags: with `--help`,
  /// print "<title> flags: --a --b ..." to stdout and return 0; with a
  /// flag outside `known`, print require_known's error to stderr and
  /// return 1; otherwise return std::nullopt and let the binary run.
  [[nodiscard]] std::optional<int> check_flags(
      std::string_view title,
      std::initializer_list<std::string_view> known) const;

  /// Value lookups with defaults; throw PreconditionError when the stored
  /// text cannot be parsed as the requested type. When a flag is repeated
  /// the scalar getters use the last occurrence.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;

  /// Every occurrence of `--name value` in command-line order (empty when
  /// absent) — for repeatable flags such as bsa_tool's `--algo`.
  [[nodiscard]] std::vector<std::string> get_strings(
      const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Unsigned 64-bit variant for counts that outgrow int64 (e.g. a load
  /// generator's request total). Rejects negatives and out-of-range
  /// values instead of clamping, like get_int.
  [[nodiscard]] std::uint64_t get_uint64(const std::string& name,
                                         std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Worker-thread count from `--threads N` (alias `--jobs N` / `-j`-style
  /// `--jobs=N`). Returns `fallback` when neither flag is present; 0 is
  /// accepted and conventionally means "all hardware threads". Negative
  /// values are rejected.
  [[nodiscard]] int threads(int fallback = 1) const;

  /// Output path from `--out <path>`; std::nullopt when absent.
  [[nodiscard]] std::optional<std::string> out_path() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program_name() const noexcept {
    return program_;
  }

 private:
  [[nodiscard]] const std::string* last_value(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace bsa
