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
/// Precondition (the slot order): the intervals are sorted by (start,
/// finish), and each finishes no later than every later one starts —
/// time_le(a.finish, b.start) — unless that later one starts within the
/// tolerance of its own start (time_le(b.start, a.start)). Every list
/// the schedulers build meets it: an answer of this search starts at or
/// after every finish it passed and finishes within the tolerance of
/// every later start, except that a request shorter than the tolerance
/// may fit "before" an interval starting up to a tolerance earlier, and
/// then sorts after it, nested (so zero-cost tasks and hops land);
/// append-only and re-timed lists are sequential; removing intervals
/// keeps it. tests/scheduler_conformance_test checks it on every
/// registered scheduler's result. Finishes are not sorted (a nested
/// interval ends before the one around it), so the search does not
/// bisect on them.
///
/// The answer equals the plain scan from the first interval (candidate
/// = r0; for each interval: stop if the request fits before it, else
/// candidate = max(candidate, finish)). Let k be the last interval with
/// start[k] + tolerance <= r0, found by binary search on the sorted
/// starts, and k' the first with start[k'] + tolerance >= start[k] (a
/// walk back from k, over intervals nested at its start). Every i < k'
/// starts more than a tolerance before k, so by the precondition it
/// finishes by start[k] + tolerance <= r0: the plain scan keeps
/// candidate = r0 across them, and a request that fits before one of
/// them also fits before k'. The scan therefore starts at k' (at the
/// first interval when there is no k). Each step compares the sums as
/// time_le rounds them, so the argument holds in floating point.
template <class Items, class IntervalOf = std::identity>
[[nodiscard]] Time earliest_fit(const Items& items, Time ready, Time duration,
                                IntervalOf interval_of = {}) {
  BSA_REQUIRE(duration >= 0, "negative duration " << duration);
  const Time r0 = std::max(ready, Time{0});
  auto first = std::partition_point(
      std::begin(items), std::end(items), [&](const auto& x) {
        return interval_of(x).start + kTimeEpsilon <= r0;
      });
  if (first != std::begin(items)) {
    --first;
    const Time start_k = interval_of(*first).start;
    while (first != std::begin(items) &&
           interval_of(*std::prev(first)).start + kTimeEpsilon >= start_k) {
      --first;
    }
  }
  Time candidate = r0;
  for (auto it = first; it != std::end(items); ++it) {
    const Interval iv = interval_of(*it);
    if (time_le(candidate + duration, iv.start)) break;  // fits before iv
    candidate = std::max(candidate, iv.finish);
  }
  return candidate;
}

/// Insert `iv` into a list sorted by (start, finish), after every
/// interval that is not greater (place_task's rule; binary search).
/// Throws InvariantError if `iv` and a neighbour overlap: by default when
/// the earlier of the two runs past the later one's start by more than
/// the time tolerance (append_hop's rule; the replay keeps it). With `nest_short`, only a
/// shared span longer than the tolerance counts, so an interval shorter
/// than the tolerance may nest inside a neighbour: the link probe's
/// trial overlays take the search's nested answers that way, and a trial
/// is not a booking.
void insert_interval(std::vector<Interval>& busy, const Interval& iv,
                     bool nest_short = false);

}  // namespace bsa::sched
