#pragma once

#include <functional>
#include <limits>

#include "common/types.hpp"
#include "sched/timeline.hpp"

/// \file slot_precondition.hpp
/// The precondition of sched::earliest_fit, as one check shared by the
/// slot-search and the scheduler-conformance tests.

namespace bsa::testing {

/// True when the busy intervals of `items` (element x holds
/// `interval_of(x)`) are in earliest_fit's slot order: each finishes no
/// earlier than it starts and no later than the next one starts. Sorted
/// by (start, finish), with sorted finishes, follows.
template <class Items, class IntervalOf = std::identity>
bool meets_slot_precondition(const Items& items, IntervalOf interval_of = {}) {
  Time free_from = -std::numeric_limits<Time>::infinity();
  for (const auto& x : items) {
    const sched::Interval iv = interval_of(x);
    if (!(free_from <= iv.start && iv.start <= iv.finish)) return false;
    free_from = iv.finish;
  }
  return true;
}

}  // namespace bsa::testing
