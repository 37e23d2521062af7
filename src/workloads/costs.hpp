#pragma once

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

/// \file costs.hpp
/// Shared cost-assignment policy for workload generators (§3 of the
/// paper): task execution costs are drawn uniformly from [100, 200]
/// (average ~150) and communication costs are drawn around
/// (average exec cost / granularity), so granularity 0.1 yields
/// fine-grained graphs (communication ~10x computation) and granularity
/// 10 coarse-grained ones. The workload registry's ccr= option is the
/// reciprocal: granularity = 1/ccr.
///
/// Draws advance the caller's Rng deterministically; the helpers hold
/// no state of their own, so they are thread-safe as long as each
/// thread uses its own Rng (generators derive one per call from the
/// CostParams seed).

namespace bsa::workloads {

struct CostParams {
  Cost exec_lo = 100;
  Cost exec_hi = 200;
  /// Average execution cost / average communication cost (paper §3).
  double granularity = 1.0;
  std::uint64_t seed = 0;
};

/// Draw one execution cost.
[[nodiscard]] inline Cost draw_exec_cost(Rng& rng, const CostParams& p) {
  return static_cast<Cost>(rng.uniform_int(static_cast<std::int64_t>(p.exec_lo),
                                           static_cast<std::int64_t>(p.exec_hi)));
}

/// True when draw_comm_cost is defined at `granularity`: finite, > 0, and
/// the largest draw (1.5 x the target average) below 2^63, so converting
/// it to int64 cannot overflow. Checked once per generate call and on the
/// ccr= / gran inputs, never per draw.
[[nodiscard]] inline bool comm_costs_in_range(double granularity,
                                              const CostParams& p = {}) {
  if (!std::isfinite(granularity) || granularity <= 0) return false;
  const double target = 0.5 * (p.exec_lo + p.exec_hi) / granularity;
  return target * 1.5 < 0x1p63;
}

/// Draw one communication cost: uniform in [0.5, 1.5] x target average,
/// at least 1 so no message is free. Requires comm_costs_in_range.
[[nodiscard]] inline Cost draw_comm_cost(Rng& rng, const CostParams& p) {
  const double avg_exec = 0.5 * (p.exec_lo + p.exec_hi);
  const double target = avg_exec / p.granularity;
  const double v = target * rng.uniform_real(0.5, 1.5);
  return v < 1.0 ? Cost{1} : static_cast<Cost>(static_cast<std::int64_t>(v));
}

}  // namespace bsa::workloads
