#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "sched/timeline.hpp"

/// \file slot_precondition.hpp
/// The precondition of sched::earliest_fit, as one check shared by the
/// slot-search and the scheduler-conformance tests.

namespace bsa::testing {

/// True when the busy intervals of `items` (element x holds
/// `interval_of(x)`) are in earliest_fit's slot order: sorted by (start,
/// finish), each finishing no later than every later one starts, within
/// the time tolerance, unless that later one starts within the tolerance
/// of its own start (nested). One sweep: the intervals that start more
/// than a tolerance before b form a prefix, whose latest finish must not
/// pass b's start.
template <class Items, class IntervalOf = std::identity>
bool meets_slot_precondition(const Items& items, IntervalOf interval_of = {}) {
  std::vector<sched::Interval> busy;
  for (const auto& x : items) busy.push_back(interval_of(x));
  Time prefix_finish = -std::numeric_limits<Time>::infinity();
  std::size_t prefix = 0;
  for (std::size_t b = 0; b < busy.size(); ++b) {
    if (b > 0 && sched::interval_less(busy[b], busy[b - 1])) return false;
    while (busy[prefix].start + kTimeEpsilon < busy[b].start) {
      prefix_finish = std::max(prefix_finish, busy[prefix].finish);
      ++prefix;
    }
    if (!time_le(prefix_finish, busy[b].start)) return false;
  }
  return true;
}

}  // namespace bsa::testing
