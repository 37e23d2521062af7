#include "sched/timeline.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bsa::sched {

void insert_interval(std::vector<Interval>& busy, const Interval& iv) {
  const auto pos =
      std::upper_bound(busy.begin(), busy.end(), iv, interval_less);
  if (pos != busy.end()) {
    BSA_ASSERT(iv.finish <= pos->start,
               "interval [" << iv.start << "," << iv.finish
                            << ") overlaps successor");
  }
  if (pos != busy.begin()) {
    BSA_ASSERT((pos - 1)->finish <= iv.start,
               "interval [" << iv.start << "," << iv.finish
                            << ") overlaps predecessor");
  }
  busy.insert(pos, iv);
}

}  // namespace bsa::sched
