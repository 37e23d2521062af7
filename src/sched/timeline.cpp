#include "sched/timeline.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bsa::sched {

void insert_interval(std::vector<Interval>& busy, const Interval& iv,
                     bool nest_short) {
  // Whether `a`, sorted before `b`, and `b` overlap.
  const auto overlap = [nest_short](const Interval& a, const Interval& b) {
    return nest_short
               ? time_lt(b.start, std::min(a.finish, b.finish))
               : !time_le(a.finish, b.start);
  };
  const auto pos =
      std::upper_bound(busy.begin(), busy.end(), iv, interval_less);
  if (pos != busy.end()) {
    BSA_ASSERT(!overlap(iv, *pos), "interval [" << iv.start << ","
                                                << iv.finish
                                                << ") overlaps successor");
  }
  if (pos != busy.begin()) {
    BSA_ASSERT(!overlap(*(pos - 1), iv),
               "interval [" << iv.start << "," << iv.finish
                            << ") overlaps predecessor");
  }
  busy.insert(pos, iv);
}

}  // namespace bsa::sched
