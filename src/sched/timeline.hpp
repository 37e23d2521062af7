#pragma once

#include <cstddef>
#include <span>
#include <vector>

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

/// True when [a) and [b) overlap by more than the time tolerance.
[[nodiscard]] bool intervals_overlap(const Interval& a, const Interval& b) noexcept;

/// Earliest start >= ready such that [start, start+duration) does not
/// overlap any busy interval. `busy` must be sorted by start and mutually
/// non-overlapping. Zero-duration requests return max(ready, 0).
[[nodiscard]] Time earliest_fit(std::span<const Interval> busy, Time ready,
                                Time duration);

/// Insert `iv` into a sorted non-overlapping interval vector, keeping it
/// sorted. Throws InvariantError if `iv` overlaps an existing interval.
void insert_interval(std::vector<Interval>& busy, const Interval& iv);

/// True when `busy` is sorted by start and mutually non-overlapping.
[[nodiscard]] bool is_well_formed(std::span<const Interval> busy) noexcept;

/// Free-slot index over one resource timeline.
///
/// `earliest_fit` answers a slot query with a linear scan over the busy
/// intervals — O(k) per query. SlotIndex preprocesses the same sorted
/// interval list into gap records (gap j sits before busy[j]; its left
/// edge is the running maximum of earlier finishes, exactly the
/// `candidate` of the linear scan) plus a segment tree over gap
/// capacities, so each query runs in O(log k): one binary search for the
/// gaps still left of `ready` and one leftmost-fitting-leaf descent for
/// the gaps beyond it. Answers are bit-identical to `earliest_fit` — the
/// tree only prunes (with a small epsilon/ulp slack) and every candidate
/// gap is re-checked with the scan's exact floating-point predicate.
///
/// Build is O(k). A timeline that only grows keeps its index current
/// with insert() instead (the replay workspace, retime.hpp); one whose
/// intervals move or leave is rebuilt (Schedule caches one per
/// processor/link behind a dirty flag).
class SlotIndex {
 public:
  /// Index `busy` (sorted by start, mutually non-overlapping).
  void build(std::span<const Interval> busy);
  void reset() noexcept;
  [[nodiscard]] bool built() const noexcept { return built_; }

  /// Grow `busy` — the list this index was built over and has grown
  /// since, sorted by (start, finish) — by `iv`, and keep the index
  /// equal to a fresh build over the grown list. `iv` goes before the
  /// first interval whose (start, finish) is greater, Schedule's
  /// place_task/append_hop rule, found by binary search; the gap records
  /// from there on and the tree above them are updated in
  /// O(k - position + log k). Returns the position. Throws InvariantError,
  /// leaving both untouched, when `iv` overlaps a neighbour.
  std::size_t insert(std::vector<Interval>& busy, const Interval& iv);

  /// Churn heuristic: counts queries that arrived while the index was
  /// unbuilt, cleared on reset(). A resource that is invalidated between
  /// almost every query (a migration commit's pattern: each slot query
  /// is followed by a booking on the same resource) never repays an
  /// O(k) build — its owner answers the first few post-invalidation
  /// queries with a linear earliest_fit scan (bit-identical by
  /// definition) and only builds once the resource proves hot.
  [[nodiscard]] int note_unbuilt_query() noexcept { return ++unbuilt_queries_; }

  /// Earliest start >= ready of an idle gap of `duration`; identical to
  /// sched::earliest_fit over the indexed intervals.
  [[nodiscard]] Time query(Time ready, Time duration) const;

 private:
  [[nodiscard]] int descend(int node, int lo, int hi, int from,
                            Time min_cap) const;
  /// Recompute tree leaves [from, n_) and their ancestors.
  void refresh_tree(int from);

  std::vector<Time> gap_end_;   // gap j right edge = busy[j].start
  std::vector<Time> gap_open_;  // gap j left edge = max finish of busy[0..j)
  std::vector<Time> seg_;       // max (gap_end - gap_open) per tree node
  int n_ = 0;                   // number of busy intervals (== gap count)
  Time tail_open_ = 0;          // max finish over all intervals
  bool built_ = false;
  int unbuilt_queries_ = 0;     // queries since reset while unbuilt

  /// Testing aid (tests/timeline_test.cpp): compares the arrays of an
  /// index grown by insert() with those of a fresh build.
  friend struct SlotIndexTestPeer;
};

}  // namespace bsa::sched
