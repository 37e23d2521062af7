#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

/// \file timeline.hpp
/// Interval arithmetic for exclusive resources (processors and links).
///
/// Both schedulers use *insertion-based* slot search: a new task/message
/// may occupy any idle gap of sufficient length, not just the tail of the
/// timeline. This is the behaviour the paper attributes to BSA ("messages
/// are incrementally scheduled to suitable slots").

namespace bsa::sched {

/// Half-open busy interval [start, finish).
struct Interval {
  Time start = 0;
  Time finish = 0;
};

/// The order of a resource's intervals: by start, then by finish.
[[nodiscard]] inline bool interval_less(const Interval& a,
                                        const Interval& b) noexcept {
  return a.start < b.start || (a.start == b.start && a.finish < b.finish);
}

/// The one insertion-slot search: earliest start >= max(ready, 0) such
/// that [start, start+duration) overlaps no busy interval, where
/// `interval_of(x)` is the busy interval of element x of `items` — read
/// in place, so a processor's task order, a link's bookings and plain
/// Interval lists share it without a copy. Zero-duration requests fit on
/// any boundary.
///
/// Precondition (the slot order): each interval finishes no later than
/// the next one starts, so starts and finishes are both sorted. Every
/// list the schedulers build meets it (tests/scheduler_conformance_test
/// checks): an answer starts at or after every finish it passed and
/// finishes by the next start; append-only and re-timed lists are
/// sequential; removals keep it.
///
/// The answer equals the plain scan from the first interval (candidate
/// = r0; for each interval: stop if the request fits before it, else
/// candidate = max(candidate, finish)): across the prefix that finishes
/// by r0 the scan keeps candidate = r0, and a request fitting before one
/// of those (zero-length, at r0) also fits before the next interval.
template <class Items, class IntervalOf = std::identity>
[[nodiscard]] Time earliest_fit(const Items& items, Time ready, Time duration,
                                IntervalOf interval_of = {}) {
  BSA_REQUIRE(duration >= 0, "negative duration " << duration);
  const Time r0 = std::max(ready, Time{0});
  const auto first = std::partition_point(
      std::begin(items), std::end(items),
      [&](const auto& x) { return interval_of(x).finish <= r0; });
  Time candidate = r0;
  for (auto it = first; it != std::end(items); ++it) {
    const Interval iv = interval_of(*it);
    if (candidate + duration <= iv.start) break;  // fits before iv
    candidate = std::max(candidate, iv.finish);
  }
  return candidate;
}

/// Insert `iv` into a list in the slot order, after every interval that
/// is not greater in (start, finish) (place_task's rule; binary search).
/// Throws InvariantError if the earlier of `iv` and a neighbour finishes
/// after the later one starts (append_hop's rule).
void insert_interval(std::vector<Interval>& busy, const Interval& iv);

}  // namespace bsa::sched
