#pragma once

#include <cstdint>
#include <limits>

/// \file types.hpp
/// Fundamental identifier and quantity types shared by every module.
///
/// All identifiers are dense zero-based indices into the owning container
/// (`TaskGraph`, `Topology`, ...). The sentinel value `kInvalid*` marks
/// "not assigned / not present".

namespace bsa {

/// Index of a task within a TaskGraph.
using TaskId = std::int32_t;
/// Index of a directed edge (message) within a TaskGraph.
using EdgeId = std::int32_t;
/// Index of a processor within a Topology.
using ProcId = std::int32_t;
/// Index of an undirected communication link within a Topology.
using LinkId = std::int32_t;

inline constexpr TaskId kInvalidTask = -1;
inline constexpr EdgeId kInvalidEdge = -1;
inline constexpr ProcId kInvalidProc = -1;
inline constexpr LinkId kInvalidLink = -1;

/// Simulated time. Times compare exactly (`<`, `==`): the paper's model
/// is integral (nominal costs times integral heterogeneity factors), so
/// its times are exact sums, and BSA moves a task only when it finishes
/// strictly earlier. A fractional cost model gets the same rule: every
/// time is computed by the same sums wherever it is compared (a finish
/// is `start + cost`, never recovered by a subtraction).
using Time = double;
/// Execution or communication cost (same unit as Time).
using Cost = double;

/// Sentinel for "no time assigned yet".
inline constexpr Time kUnsetTime = -std::numeric_limits<Time>::infinity();
/// Upper sentinel, useful as an initial minimum.
inline constexpr Time kInfiniteTime = std::numeric_limits<Time>::infinity();

}  // namespace bsa
