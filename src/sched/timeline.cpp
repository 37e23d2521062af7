#include "sched/timeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace bsa::sched {

bool intervals_overlap(const Interval& a, const Interval& b) noexcept {
  // Shared time span must be non-empty; empty intervals overlap nothing.
  return time_lt(std::max(a.start, b.start), std::min(a.finish, b.finish));
}

Time earliest_fit(std::span<const Interval> busy, Time ready, Time duration) {
  BSA_REQUIRE(duration >= 0, "negative duration " << duration);
  Time candidate = std::max(ready, Time{0});
  for (const Interval& iv : busy) {
    if (time_le(candidate + duration, iv.start)) break;  // fits before iv
    candidate = std::max(candidate, iv.finish);
  }
  return candidate;
}

void insert_interval(std::vector<Interval>& busy, const Interval& iv) {
  const auto pos = std::lower_bound(
      busy.begin(), busy.end(), iv,
      [](const Interval& a, const Interval& b) { return a.start < b.start; });
  if (pos != busy.end()) {
    BSA_ASSERT(!intervals_overlap(*pos, iv),
               "interval [" << iv.start << "," << iv.finish
                            << ") overlaps successor");
  }
  if (pos != busy.begin()) {
    BSA_ASSERT(!intervals_overlap(*(pos - 1), iv),
               "interval [" << iv.start << "," << iv.finish
                            << ") overlaps predecessor");
  }
  busy.insert(pos, iv);
}

bool is_well_formed(std::span<const Interval> busy) noexcept {
  for (std::size_t i = 1; i < busy.size(); ++i) {
    if (busy[i].start < busy[i - 1].start) return false;
    if (time_lt(busy[i].start, busy[i - 1].finish)) return false;
  }
  for (const Interval& iv : busy) {
    if (time_lt(iv.finish, iv.start)) return false;
  }
  return true;
}

// --- SlotIndex ---------------------------------------------------------------

void SlotIndex::reset() noexcept {
  built_ = false;
  n_ = 0;
  unbuilt_queries_ = 0;
}

void SlotIndex::build(std::span<const Interval> busy) {
  n_ = static_cast<int>(busy.size());
  gap_end_.resize(busy.size());
  gap_open_.resize(busy.size());
  Time open = 0;  // running max of finishes == the scan's `candidate`
  for (std::size_t j = 0; j < busy.size(); ++j) {
    gap_end_[j] = busy[j].start;
    gap_open_[j] = open;
    open = std::max(open, busy[j].finish);
  }
  tail_open_ = open;
  // Segment tree of gap capacities (leftmost-fit descent).
  int p = 1;
  while (p < std::max(n_, 1)) p *= 2;
  seg_.assign(static_cast<std::size_t>(2 * p), -kInfiniteTime);
  refresh_tree(0);
  built_ = true;
}

std::size_t SlotIndex::insert(std::vector<Interval>& busy, const Interval& iv) {
  BSA_ASSERT(built_ && busy.size() == static_cast<std::size_t>(n_),
             "SlotIndex::insert into a list it does not index");
  const auto it = std::upper_bound(
      busy.begin(), busy.end(), iv, [](const Interval& a, const Interval& b) {
        return a.start < b.start || (a.start == b.start && a.finish < b.finish);
      });
  if (it != busy.end()) {
    BSA_ASSERT(time_le(iv.finish, it->start),
               "interval [" << iv.start << "," << iv.finish
                            << ") overlaps successor");
  }
  if (it != busy.begin()) {
    BSA_ASSERT(time_le((it - 1)->finish, iv.start),
               "interval [" << iv.start << "," << iv.finish
                            << ") overlaps predecessor");
  }
  const auto pos = static_cast<std::size_t>(it - busy.begin());
  busy.insert(it, iv);

  // The new gap opens where the old gap at `pos` did; every later gap's
  // left edge (a running max of finishes) now also covers iv.finish.
  const Time open = pos < gap_open_.size() ? gap_open_[pos] : tail_open_;
  const auto at = static_cast<std::ptrdiff_t>(pos);
  gap_end_.insert(gap_end_.begin() + at, iv.start);
  gap_open_.insert(gap_open_.begin() + at, open);
  ++n_;
  for (std::size_t j = pos + 1; j < gap_open_.size(); ++j) {
    if (!(gap_open_[j] < iv.finish)) break;  // running max: the rest hold
    gap_open_[j] = iv.finish;
  }
  tail_open_ = std::max(tail_open_, iv.finish);

  if (static_cast<std::size_t>(n_) > seg_.size() / 2) {
    // Outgrew the tree: double it, the size a fresh build would pick.
    seg_.assign(2 * seg_.size(), -kInfiniteTime);
    refresh_tree(0);
  } else {
    refresh_tree(static_cast<int>(pos));
  }
  return pos;
}

void SlotIndex::refresh_tree(int from) {
  const int p = static_cast<int>(seg_.size()) / 2;
  for (int j = from; j < n_; ++j) {
    seg_[static_cast<std::size_t>(p + j)] =
        gap_end_[static_cast<std::size_t>(j)] -
        gap_open_[static_cast<std::size_t>(j)];
  }
  for (int lo = (p + from) / 2, hi = (p + n_ - 1) / 2; lo >= 1;
       lo /= 2, hi /= 2) {
    for (int v = lo; v <= hi; ++v) {
      seg_[static_cast<std::size_t>(v)] =
          std::max(seg_[static_cast<std::size_t>(2 * v)],
                   seg_[static_cast<std::size_t>(2 * v + 1)]);
    }
  }
}

int SlotIndex::descend(int node, int lo, int hi, int from, Time min_cap) const {
  if (hi <= from || seg_[static_cast<std::size_t>(node)] < min_cap) return -1;
  if (hi - lo == 1) return lo >= n_ ? -1 : lo;
  const int mid = lo + (hi - lo) / 2;
  const int left = descend(2 * node, lo, mid, from, min_cap);
  if (left >= 0) return left;
  return descend(2 * node + 1, mid, hi, from, min_cap);
}

Time SlotIndex::query(Time ready, Time duration) const {
  BSA_REQUIRE(duration >= 0, "negative duration " << duration);
  BSA_ASSERT(built_, "SlotIndex::query before build");
  const Time r0 = std::max(ready, Time{0});
  if (n_ == 0) return r0;

  // Gaps left of the ready point (their open edge <= r0): the scan's
  // candidate there is r0 itself, and the fit predicate is monotone in
  // the (sorted) gap right edges — binary search.
  const auto open_begin = gap_open_.begin();
  const int s = static_cast<int>(
      std::upper_bound(open_begin, open_begin + n_, r0) - open_begin);
  const auto end_begin = gap_end_.begin();
  const int a = static_cast<int>(
      std::partition_point(end_begin, end_begin + s,
                           [&](Time end) { return !time_le(r0 + duration, end); }) -
      end_begin);
  if (a < s) return r0;

  // Gaps right of the ready point: candidate is the gap's own open edge.
  // The tree prunes by capacity with an epsilon+ulp slack; leaves are
  // re-verified with the linear scan's exact predicate below.
  const Time slack =
      2 * kTimeEpsilon + 1e-12 * (std::abs(tail_open_) + std::abs(duration) + 1);
  const int leaves = static_cast<int>(seg_.size()) / 2;
  int j = s;
  while (j < n_) {
    j = descend(1, 0, leaves, j, duration - slack);
    if (j < 0) break;
    if (time_le(gap_open_[static_cast<std::size_t>(j)] + duration,
                gap_end_[static_cast<std::size_t>(j)])) {
      return gap_open_[static_cast<std::size_t>(j)];
    }
    ++j;  // epsilon-marginal false positive: keep searching rightward
  }
  return std::max(r0, tail_open_);
}

}  // namespace bsa::sched
