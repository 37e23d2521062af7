#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.hpp"

/// \file spec.hpp
/// The *spec string* machinery behind every named-thing registry in the
/// repo (scheduler specs such as "bsa:gate=always,route=static" and
/// workload specs such as "fft:points=64,ccr=0.5"), and the one registry
/// class template, SpecRegistry<T>, that both registries are.
///
/// Grammar (names, keys and values are case-insensitive ASCII,
/// whitespace-tolerant; full reference: docs/SPECS.md):
///
///   spec    := name [ ":" option ("," option)* ]
///   option  := key "=" value
///
/// Each option is declared once, as an OptionDoc built by choice_option,
/// flag_option, int_option, uint64_option or real_option: key, type with
/// its bound or choices, default and summary. The declaration drives
/// validation (SpecOptions rejects unknown keys and bad values), the
/// typed read (SpecOptions::choice, ::integer, ...), the documentation
/// row, and the canonical spec: the lowercase name followed by the
/// non-default values in canonical spelling, sorted by key.
///
/// Everything here is thread-safe: parsing never mutates shared state,
/// SpecOptions instances are immutable, and a registry's global() is
/// built once and only read afterwards.

namespace bsa {

/// A spec string split into its (lowercased) name and option list.
struct ParsedSpec {
  std::string name;
  /// Options in spec order; keys and values lowercased and trimmed.
  std::vector<std::pair<std::string, std::string>> options;
};

/// ASCII lowercase (spec strings are ASCII identifiers).
[[nodiscard]] std::string ascii_lower(const std::string& s);

/// Parse a spec string. `kind` names the registry in error messages
/// ("scheduler", "workload"). Throws PreconditionError on grammar errors
/// (empty name, missing '=', duplicate keys, stray separators).
[[nodiscard]] ParsedSpec parse_spec(const std::string& spec,
                                    const std::string& kind);

/// A validated option value: a choice, a flag, an integer, an unsigned
/// 64-bit integer (seeds) or a finite double.
using OptionValue =
    std::variant<std::string, bool, std::int64_t, std::uint64_t, double>;

/// One declared option. The first four fields are its documentation row
/// (the key is what unknown-option errors list); the rest is its type.
/// Build declarations with the *_option functions below.
struct OptionDoc {
  enum class Type { kChoice, kFlag, kInt, kUint64, kReal };

  std::string name;           ///< the key
  std::string values;         ///< e.g. "paper|always" or "integer >= 1"
  std::string default_value;  ///< canonical default, or a "(...)" note
  std::string summary;

  Type type = Type::kChoice;
  std::vector<std::string> choices;  ///< kChoice; the first is the default
  std::int64_t min_int = 0;          ///< kInt: inclusive lower bound
  double min_real = 0;               ///< kReal: exclusive lower bound
  /// The parsed default. An option without one (a "(...)" note) is
  /// unset unless pinned, and a pinned value is always canonical.
  std::optional<OptionValue> fallback;
};

/// Declarations. `fallback` is the default's canonical spelling, or a
/// parenthesised note ("(caller seed)") for an option without a default.
/// A choice option defaults to its first choice. `values` replaces the
/// derived values text of an integer option whose owner checks more
/// than the lower bound ("power of two >= 2").
[[nodiscard]] OptionDoc choice_option(std::string key,
                                      std::vector<std::string> choices,
                                      std::string summary);
[[nodiscard]] OptionDoc flag_option(std::string key, std::string fallback,
                                    std::string summary);
[[nodiscard]] OptionDoc int_option(std::string key, std::int64_t min,
                                   std::string fallback, std::string summary,
                                   std::string values = {});
[[nodiscard]] OptionDoc uint64_option(std::string key, std::string fallback,
                                      std::string summary);
[[nodiscard]] OptionDoc real_option(std::string key, double min_exclusive,
                                    std::string fallback,
                                    std::string summary);

/// A spec's options validated against its entry's declarations, with
/// typed reads for the factory. Immutable — safe to share across threads.
class SpecOptions {
 public:
  /// Validate `parsed` against `decls`: the first unknown key (spec
  /// order) throws PreconditionError listing the valid options, then the
  /// first bad value (declaration order) throws naming the key and the
  /// accepted values.
  SpecOptions(const std::string& kind, std::string display_name,
              const std::vector<OptionDoc>& decls, const ParsedSpec& parsed);

  /// The (lowercase) registry name the options belong to.
  [[nodiscard]] const std::string& name() const { return name_; }
  /// The entry's display name ("BSA", "FFT butterfly").
  [[nodiscard]] const std::string& display_name() const {
    return display_name_;
  }
  /// The canonical spec: the name followed by the non-default values in
  /// canonical spelling, sorted by key.
  [[nodiscard]] const std::string& canonical() const { return canonical_; }

  /// Whether `o` has a value: pinned, or declared with a default.
  [[nodiscard]] bool has(const OptionDoc& o) const;

  /// Typed reads of `o`'s value (pinned, else its default); `o` must
  /// have one and be of the read's type.
  [[nodiscard]] const std::string& choice(const OptionDoc& o) const;
  [[nodiscard]] bool flag(const OptionDoc& o) const;
  [[nodiscard]] int integer(const OptionDoc& o) const;
  [[nodiscard]] std::uint64_t uint64(const OptionDoc& o) const;
  [[nodiscard]] double real(const OptionDoc& o) const;

 private:
  [[nodiscard]] const OptionValue* find(const OptionDoc& o) const;
  template <typename V>
  [[nodiscard]] const V& read(const OptionDoc& o) const;

  std::string name_;
  std::string display_name_;
  std::string canonical_;
  std::vector<std::pair<std::string, OptionValue>> pinned_;  // by key
};

/// An object resolved from a spec string: a configured scheduler or
/// workload. Immutable once built by its registry entry's factory.
class SpecInstance {
 public:
  explicit SpecInstance(const SpecOptions& opts)
      : spec_(opts.canonical()), display_name_(opts.display_name()) {}
  virtual ~SpecInstance() = default;

  /// Canonical spec string ("bsa:gate=always", "fft:points=64"). Feeding
  /// it back through the registry reproduces the instance.
  [[nodiscard]] std::string spec() const { return spec_; }

  /// Human display name of the family ("BSA", "FFT butterfly").
  [[nodiscard]] std::string display_name() const { return display_name_; }

  /// Label for tables and reports: the display name for a default
  /// configuration, the canonical spec for a variant.
  [[nodiscard]] std::string display_label() const {
    return spec_.find(':') == std::string::npos ? display_name_ : spec_;
  }

 private:
  std::string spec_;
  std::string display_name_;
};

/// Canonical spelling of a double-valued option ("0.5", "10", "2.25") —
/// shortest representation that parses back to the same value.
[[nodiscard]] std::string canonical_double(double v);

/// Split a comma-separated list of specs, e.g. a CLI `--algo` or
/// `--workload` value. Variant options themselves use commas
/// ("bsa:gate=always,route=static"), so a comma token of the form
/// key=value whose key does not satisfy `is_registered_name` continues
/// the preceding spec instead of starting a new one. The returned specs
/// are not yet validated — feed them to a registry's resolve/canonical.
[[nodiscard]] std::vector<std::string> split_spec_list(
    const std::string& text,
    const std::function<bool(const std::string&)>& is_registered_name);

/// Join strings with a separator — shared by registry error listings.
[[nodiscard]] std::string join_list(const std::vector<std::string>& parts,
                                    const char* sep);

/// Throw PreconditionError unless `name` is a canonical registry
/// identifier (non-empty, lowercase, no ':', ',' or '=') and `options`
/// declares each key once.
void require_valid_entry(const std::string& kind, const std::string& name,
                         const std::vector<OptionDoc>& options);

/// What a SpecRegistry<T> needs from T's side: `kKind`, the noun its
/// messages use ("scheduler"), and `register_builtins`, which fills
/// global(). Specialised next to T.
template <typename T>
struct RegistryTraits;

/// Registry of named factories of T (sched::Scheduler,
/// workloads::Workload). `global()` holds the built-ins; local instances
/// can be built in tests.
template <typename T>
class SpecRegistry {
 public:
  using OptionDoc = bsa::OptionDoc;
  using Factory = std::function<std::unique_ptr<T>(const SpecOptions&)>;

  struct Entry {
    std::string name;          ///< canonical lowercase registry name
    std::string display_name;  ///< e.g. "EFT (oblivious)"
    std::string summary;       ///< one-line description
    std::vector<OptionDoc> options;
    Factory factory;
  };

  /// Register an entry. Throws on duplicate or non-canonical names.
  void add(Entry entry) {
    const char* kind = RegistryTraits<T>::kKind;
    require_valid_entry(kind, entry.name, entry.options);
    BSA_REQUIRE(find(entry.name) == nullptr,
                kind << " '" << entry.name << "' is already registered");
    BSA_REQUIRE(entry.factory != nullptr, kind << " '" << entry.name
                                               << "' registered without a "
                                                  "factory");
    entries_.push_back(std::move(entry));
  }

  /// Resolve a spec string into a configured instance. Unknown names,
  /// unknown option keys and bad values throw PreconditionError messages
  /// listing the registered names / the valid options / the accepted
  /// values.
  [[nodiscard]] std::unique_ptr<T> resolve(const std::string& spec) const {
    const char* kind = RegistryTraits<T>::kKind;
    const ParsedSpec parsed = parse_spec(spec, kind);
    const Entry* entry = find(parsed.name);
    BSA_REQUIRE(entry != nullptr, "unknown " << kind << " '" << parsed.name
                                             << "'; registered: "
                                             << join_list(names(), ", "));
    return entry->factory(
        SpecOptions(kind, entry->display_name, entry->options, parsed));
  }

  /// Canonical form of `spec` (resolve + spec()).
  [[nodiscard]] std::string canonical(const std::string& spec) const {
    return resolve(spec)->spec();
  }

  /// Table/report label for `spec` (resolve + display_label()).
  [[nodiscard]] std::string display_label(const std::string& spec) const {
    return resolve(spec)->display_label();
  }

  /// Registered names in registration order.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

  /// bsa::split_spec_list with this registry's names as spec starts.
  [[nodiscard]] std::vector<std::string> split_spec_list(
      const std::string& text) const {
    return bsa::split_spec_list(text, [this](const std::string& name) {
      return find(name) != nullptr;
    });
  }

  /// Entry for `name` (case-insensitive), or nullptr.
  [[nodiscard]] const Entry* find(const std::string& name) const {
    const std::string key = ascii_lower(name);
    for (const Entry& e : entries_) {
      if (e.name == key) return &e;
    }
    return nullptr;
  }

  /// The process-wide registry, populated with the built-ins.
  [[nodiscard]] static const SpecRegistry& global() {
    static const SpecRegistry* const instance = [] {
      auto* r = new SpecRegistry();
      RegistryTraits<T>::register_builtins(*r);
      return r;
    }();
    return *instance;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace bsa
