#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/spec.hpp"

/// \file spec_declarations.hpp
/// One check over every option a SpecRegistry declares: a literal default
/// canonicalises away, a valid non-default value round-trips through
/// canonical(), and a value outside the declared type throws a
/// PreconditionError naming the key. Shared by the scheduler and the
/// workload registry tests.

namespace bsa::testing {

/// Canonical spellings of values `o` accepts by its declared type (an
/// entry's own checks may still reject some of them).
inline std::vector<std::string> accepted_values(const OptionDoc& o) {
  switch (o.type) {
    case OptionDoc::Type::kChoice:
      return o.choices;
    case OptionDoc::Type::kFlag:
      return {"on", "off"};
    case OptionDoc::Type::kInt:
      return {std::to_string(o.min_int), std::to_string(o.min_int + 1),
              std::to_string(2 * o.min_int + 2)};
    case OptionDoc::Type::kUint64:
      return {"0", "7"};
    case OptionDoc::Type::kReal:
      return {"0.5", "2"};
  }
  return {};
}

/// A value outside `o`'s declared type or bound.
inline std::string rejected_value(const OptionDoc& o) {
  switch (o.type) {
    case OptionDoc::Type::kChoice:
      return "bogus";
    case OptionDoc::Type::kFlag:
      return "maybe";
    case OptionDoc::Type::kInt:
      return std::to_string(o.min_int - 1);
    case OptionDoc::Type::kUint64:
      return "-1";
    case OptionDoc::Type::kReal:
      return "nan";
  }
  return "";
}

template <typename T>
void expect_declarations_hold(const SpecRegistry<T>& registry) {
  int options = 0;
  for (const std::string& name : registry.names()) {
    for (const OptionDoc& o : registry.find(name)->options) {
      ++options;
      const std::string prefix = name + ":" + o.name + "=";
      if (o.fallback.has_value()) {
        EXPECT_EQ(registry.canonical(prefix + o.default_value), name)
            << prefix << o.default_value;
      }
      int round_trips = 0;
      for (const std::string& v : accepted_values(o)) {
        if (o.fallback.has_value() && v == o.default_value) continue;
        std::string canonical;
        try {
          canonical = registry.canonical(prefix + v);
        } catch (const PreconditionError&) {
          continue;  // rejected by the entry's own check
        }
        EXPECT_EQ(canonical, prefix + v);
        EXPECT_EQ(registry.canonical(canonical), canonical);
        ++round_trips;
      }
      EXPECT_GT(round_trips, 0) << prefix << ": no non-default value resolves";
      const std::string bad = prefix + rejected_value(o);
      try {
        (void)registry.resolve(bad);
        ADD_FAILURE() << bad << " resolved";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("option '" + o.name + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_GT(options, 0);
}

}  // namespace bsa::testing
