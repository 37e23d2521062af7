#include "common/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "common/cli.hpp"

namespace bsa {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string join_list(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ascii_lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

ParsedSpec parse_spec(const std::string& spec, const std::string& kind) {
  const std::string text = trim(spec);
  BSA_REQUIRE(!text.empty(), kind << " spec is empty");
  ParsedSpec out;
  const std::size_t colon = text.find(':');
  out.name = ascii_lower(trim(text.substr(0, colon)));
  BSA_REQUIRE(!out.name.empty(),
              kind << " spec '" << spec << "' has an empty name");
  if (colon == std::string::npos) return out;

  const std::string opts = text.substr(colon + 1);
  BSA_REQUIRE(!trim(opts).empty(),
              kind << " spec '" << spec
                   << "' has a ':' but no options after it");
  std::size_t pos = 0;
  while (pos <= opts.size()) {
    const std::size_t comma = opts.find(',', pos);
    const std::string item =
        opts.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const std::size_t eq = item.find('=');
    BSA_REQUIRE(eq != std::string::npos,
                kind << " spec '" << spec << "': option '" << trim(item)
                     << "' is not of the form key=value");
    const std::string key = ascii_lower(trim(item.substr(0, eq)));
    const std::string value = ascii_lower(trim(item.substr(eq + 1)));
    BSA_REQUIRE(!key.empty(),
                kind << " spec '" << spec << "': option with empty key");
    BSA_REQUIRE(!value.empty(), kind << " spec '" << spec << "': option '"
                                     << key << "' has an empty value");
    for (const auto& [seen, _] : out.options) {
      BSA_REQUIRE(seen != key, kind << " spec '" << spec
                                    << "': duplicate option '" << key << "'");
    }
    out.options.emplace_back(key, value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
    BSA_REQUIRE(!trim(opts.substr(pos)).empty(),
                kind << " spec '" << spec << "' ends with ','");
  }
  return out;
}

// --- declarations -----------------------------------------------------------

namespace {

// Sanity ceiling for integer options (sweep counts, graph dimensions and
// the like): far above any sensible value, and keeps the value in int
// range.
constexpr std::int64_t kMaxIntOption = 1000000000;

/// `text` as a value of `o`, or nullopt when `o` does not accept it.
std::optional<OptionValue> parse_value(const OptionDoc& o,
                                       const std::string& text) {
  switch (o.type) {
    case OptionDoc::Type::kChoice:
      for (const std::string& c : o.choices) {
        if (text == c) return OptionValue(c);
      }
      return std::nullopt;
    case OptionDoc::Type::kFlag:
      if (const auto v = parse_bool_literal(text)) return OptionValue(*v);
      return std::nullopt;
    case OptionDoc::Type::kInt: {
      const auto v = parse_int_literal(text);
      if (!v || *v < o.min_int || *v > kMaxIntOption) return std::nullopt;
      return OptionValue(*v);
    }
    case OptionDoc::Type::kUint64:
      if (const auto v = parse_uint64_literal(text)) return OptionValue(*v);
      return std::nullopt;
    case OptionDoc::Type::kReal: {
      const auto v = parse_double_literal(text);
      if (!v || !std::isfinite(*v) || !(*v > o.min_real)) return std::nullopt;
      return OptionValue(*v);
    }
  }
  return std::nullopt;
}

/// Canonical spelling of an option value.
std::string spell(const OptionValue& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "on" : "off";
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return std::to_string(*u);
  }
  return canonical_double(std::get<double>(v));
}

/// The message rejecting `text`, which `o` does not accept.
std::string rejection(const std::string& kind, const std::string& owner,
                      const OptionDoc& o, const std::string& text) {
  std::ostringstream os;
  os << kind << " '" << owner << "': option '" << o.name << "' expects ";
  switch (o.type) {
    case OptionDoc::Type::kChoice:
      os << "one of {" << join_list(o.choices, ", ") << "}";
      break;
    case OptionDoc::Type::kFlag:
      os << "on|off";
      break;
    case OptionDoc::Type::kInt:
      os << "an integer in [" << o.min_int << ", " << kMaxIntOption << "]";
      break;
    case OptionDoc::Type::kUint64:
      os << "an unsigned integer";
      break;
    case OptionDoc::Type::kReal:
      os << "a finite number > " << o.min_real;
      break;
  }
  os << ", got '" << text << "'";
  return os.str();
}

/// Finish a declaration: its default (parsed from `fallback` unless that
/// is a "(...)" note) and its documentation row.
OptionDoc declare(OptionDoc o, std::string fallback, std::string summary,
                  std::string values) {
  if (fallback.empty() || fallback.front() != '(') {
    o.fallback = parse_value(o, fallback);
    BSA_REQUIRE(o.fallback.has_value() && spell(*o.fallback) == fallback,
                "option '" << o.name << "': default '" << fallback
                           << "' is not a canonical value of the option");
  }
  o.values = std::move(values);
  o.default_value = std::move(fallback);
  o.summary = std::move(summary);
  return o;
}

}  // namespace

OptionDoc choice_option(std::string key, std::vector<std::string> choices,
                        std::string summary) {
  BSA_REQUIRE(!choices.empty(), "option '" << key << "' has no choices");
  OptionDoc o;
  o.name = std::move(key);
  o.type = OptionDoc::Type::kChoice;
  o.choices = std::move(choices);
  std::string fallback = o.choices.front();
  std::string values = join_list(o.choices, "|");
  return declare(std::move(o), std::move(fallback), std::move(summary),
                 std::move(values));
}

OptionDoc flag_option(std::string key, std::string fallback,
                      std::string summary) {
  OptionDoc o;
  o.name = std::move(key);
  o.type = OptionDoc::Type::kFlag;
  return declare(std::move(o), std::move(fallback), std::move(summary),
                 "on|off");
}

OptionDoc int_option(std::string key, std::int64_t min, std::string fallback,
                     std::string summary, std::string values) {
  OptionDoc o;
  o.name = std::move(key);
  o.type = OptionDoc::Type::kInt;
  o.min_int = min;
  if (values.empty()) values = "integer >= " + std::to_string(min);
  return declare(std::move(o), std::move(fallback), std::move(summary),
                 std::move(values));
}

OptionDoc uint64_option(std::string key, std::string fallback,
                        std::string summary) {
  OptionDoc o;
  o.name = std::move(key);
  o.type = OptionDoc::Type::kUint64;
  return declare(std::move(o), std::move(fallback), std::move(summary),
                 "unsigned integer");
}

OptionDoc real_option(std::string key, double min_exclusive,
                      std::string fallback, std::string summary) {
  OptionDoc o;
  o.name = std::move(key);
  o.type = OptionDoc::Type::kReal;
  o.min_real = min_exclusive;
  return declare(std::move(o), std::move(fallback), std::move(summary),
                 "finite number > " + canonical_double(min_exclusive));
}

// --- SpecOptions ------------------------------------------------------------

SpecOptions::SpecOptions(const std::string& kind, std::string display_name,
                         const std::vector<OptionDoc>& decls,
                         const ParsedSpec& parsed)
    : name_(parsed.name), display_name_(std::move(display_name)) {
  for (const auto& [key, _] : parsed.options) {
    bool known = false;
    for (const OptionDoc& o : decls) known = known || o.name == key;
    if (!known) {
      std::vector<std::string> valid;
      valid.reserve(decls.size());
      for (const OptionDoc& o : decls) valid.push_back(o.name);
      BSA_REQUIRE(false, kind << " '" << name_ << "': unknown option '" << key
                              << "'; valid options: "
                              << (valid.empty() ? std::string("(none)")
                                                : join_list(valid, ", ")));
    }
  }
  std::vector<std::pair<std::string, std::string>> parts;  // non-default
  for (const OptionDoc& o : decls) {
    for (const auto& [key, text] : parsed.options) {
      if (key != o.name) continue;
      std::optional<OptionValue> v = parse_value(o, text);
      BSA_REQUIRE(v.has_value(), rejection(kind, name_, o, text));
      std::string spelled = spell(*v);
      if (!o.fallback || o.default_value != spelled) {
        parts.emplace_back(o.name, std::move(spelled));
      }
      pinned_.emplace_back(o.name, std::move(*v));
    }
  }
  std::sort(parts.begin(), parts.end());
  canonical_ = name_;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    canonical_ += i == 0 ? ":" : ",";
    canonical_ += parts[i].first + "=" + parts[i].second;
  }
}

const OptionValue* SpecOptions::find(const OptionDoc& o) const {
  for (const auto& [key, v] : pinned_) {
    if (key == o.name) return &v;
  }
  return o.fallback ? &*o.fallback : nullptr;
}

bool SpecOptions::has(const OptionDoc& o) const { return find(o) != nullptr; }

template <typename V>
const V& SpecOptions::read(const OptionDoc& o) const {
  const OptionValue* v = find(o);
  BSA_ASSERT(v != nullptr && std::holds_alternative<V>(*v),
             "option '" << o.name << "' of '" << name_
                        << "' read without a value of that type");
  return std::get<V>(*v);
}

const std::string& SpecOptions::choice(const OptionDoc& o) const {
  return read<std::string>(o);
}

bool SpecOptions::flag(const OptionDoc& o) const { return read<bool>(o); }

int SpecOptions::integer(const OptionDoc& o) const {
  return static_cast<int>(read<std::int64_t>(o));
}

std::uint64_t SpecOptions::uint64(const OptionDoc& o) const {
  return read<std::uint64_t>(o);
}

double SpecOptions::real(const OptionDoc& o) const { return read<double>(o); }

void require_valid_entry(const std::string& kind, const std::string& name,
                         const std::vector<OptionDoc>& options) {
  BSA_REQUIRE(!name.empty(), kind << " registration with empty name");
  BSA_REQUIRE(name == ascii_lower(name) &&
                  name.find(':') == std::string::npos &&
                  name.find(',') == std::string::npos &&
                  name.find('=') == std::string::npos,
              kind << " name '" << name << "' is not a canonical identifier");
  for (std::size_t i = 0; i < options.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      BSA_REQUIRE(options[i].name != options[j].name,
                  kind << " '" << name << "' declares option '"
                       << options[i].name << "' twice");
    }
  }
}

// --- canonical spellings ----------------------------------------------------

std::string canonical_double(double v) {
  // Shortest %.{1..17}g spelling that round-trips; option values are
  // human-scale (CCRs, layer factors), so this terminates early.
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::vector<std::string> split_spec_list(
    const std::string& text,
    const std::function<bool(const std::string&)>& is_registered_name) {
  std::vector<std::string> specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token = trim(
        text.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos));
    const std::size_t eq = token.find('=');
    const std::size_t colon = token.find(':');
    const bool continuation =
        !specs.empty() && eq != std::string::npos &&
        (colon == std::string::npos || colon > eq) &&
        !is_registered_name(ascii_lower(trim(token.substr(0, eq))));
    if (continuation) {
      specs.back() += "," + token;
    } else {
      specs.push_back(token);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return specs;
}

}  // namespace bsa
