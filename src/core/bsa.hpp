#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/move_engine.hpp"
#include "core/serialization.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "obs/hooks.hpp"
#include "sched/schedule.hpp"

/// \file bsa.hpp
/// The Bubble Scheduling and Allocation (BSA) algorithm — the paper's
/// contribution (§2).
///
/// Outline:
///  1. Select the first pivot processor: the one whose actual execution
///     costs give the shortest critical path (pivot.hpp).
///  2. Serialize the whole program onto the pivot in CP/IB/OB order
///     (serialization.hpp); the program is now a valid (serial) schedule.
///  3. Visit processors in breadth-first order from the first pivot. For
///     each pivot, consider every task currently on it for migration to a
///     *neighbouring* processor: a task migrates when its finish time
///     improves, or (VIP rule) when its finish time stays equal and its
///     most critical predecessor lives on that neighbour.
///  4. Migration re-routes messages incrementally: incoming routes are
///     extended by the pivot→neighbour link, messages from predecessors
///     on the destination become local, and outgoing routes are re-issued
///     with the extra first hop. No routing table is consulted — routes
///     emerge from the migration history, adapting to any topology.
///  5. After every migration the schedule is re-timed so the tasks and
///     messages left behind "bubble up" into the released slots.
///
/// The complexity matches the paper's O(m^2 e n) up to the re-timing
/// refinement discussed in DESIGN.md §3.

namespace bsa::core {

/// Which tasks are examined for migration (DESIGN.md §3 note 1).
enum class GateRule : unsigned char {
  /// Paper behaviour: consider a task when its start is delayed past its
  /// data-ready time, or when its VIP is not on the pivot.
  kPaper,
  /// Ablation: examine every task on the pivot.
  kAlwaysConsider,
};

/// How message routes are determined (§2.3 of the paper).
enum class RouteDiscipline : unsigned char {
  /// Paper default: no routing table; routes grow incrementally as tasks
  /// migrate hop by hop.
  kIncremental,
  /// Static shortest-path routing: whenever a task migrates, its
  /// messages are re-routed from scratch along pre-computed shortest
  /// paths (the paper's "constraint" for networks with static routing).
  kStaticShortestPath,
  /// Static E-cube routing; requires a hypercube topology whose
  /// processor ids are the vertex addresses (the paper's example of a
  /// static-routing network). schedule_bsa rejects any other topology
  /// up front.
  kEcube,
};

/// How the program is serialized onto the first pivot (§2.2).
enum class SerializationRule : unsigned char {
  /// Paper behaviour: CP tasks earliest, IB ancestors inserted before
  /// them, OB tasks appended (serialization.hpp).
  kCpIbOb,
  /// Ablation: plain descending-b-level list (serialize_by_blevel).
  kBLevel,
};

/// When a migration that improves the task's own finish time is allowed
/// to commit (DESIGN.md §3 note 7).
enum class MigrationPolicy : unsigned char {
  /// Commit only when the overall schedule length does not increase —
  /// the paper's "a task migrates only if it can bubble up" invariant
  /// (every migration in the worked example shortens the schedule).
  kMakespanGuarded,
  /// Literal reading of the pseudocode: commit whenever the task's own
  /// finish time improves, regardless of the effect on its successors.
  kTaskGreedy,
};

struct BsaOptions {
  /// Seed for critical-path tie breaking ("ties are broken randomly").
  std::uint64_t seed = 0;
  GateRule gate = GateRule::kPaper;
  MigrationPolicy policy = MigrationPolicy::kMakespanGuarded;
  RouteDiscipline routing = RouteDiscipline::kIncremental;
  SerializationRule serialization = SerializationRule::kCpIbOb;
  /// Number of breadth-first pivot sweeps. The paper performs one; more
  /// sweeps let tasks keep diffusing over low-connectivity topologies
  /// (each sweep moves a task at most one hop per visited pivot). The
  /// loop stops early once a sweep commits no migration.
  int max_sweeps = 1;
  /// Enable the equal-finish-time VIP migration rule (paper line 11).
  bool vip_rule = true;
  /// Cut cycles out of message routes when a route revisits a processor
  /// (off = paper's plain hop-extension behaviour).
  bool prune_route_cycles = false;
  /// Insertion-based slot search on processors and links (true, paper
  /// behaviour) versus append-only (ablation).
  bool insertion_slots = true;
  /// Observability hooks (phase/migration span tracer + per-attempt
  /// decision log). Hooks only observe — they never influence the
  /// computed schedule — and with the default null hooks every
  /// instrumented path costs one branch (docs/DESIGN_OBS.md).
  obs::Hooks obs;
};

/// One committed migration, for tracing/debugging.
struct Migration {
  TaskId task = kInvalidTask;
  ProcId from = kInvalidProc;
  ProcId to = kInvalidProc;
  Time old_finish = 0;        ///< finish time on the pivot before migration
  Time predicted_finish = 0;  ///< finish time the evaluation promised
  Time new_finish = 0;        ///< finish time after commit and re-timing
  Time makespan_after = 0;    ///< schedule length right after this commit
  int phase = 0;              ///< index into BsaTrace::pivot_sequence
  bool via_vip_rule = false;
};

struct BsaTrace {
  ProcId first_pivot = kInvalidProc;
  std::vector<Cost> pivot_cp_lengths;   ///< CP length w.r.t. each processor
  SerializationResult serialization;    ///< order used for injection
  Time initial_serial_length = 0;       ///< SL right after serialization
  std::vector<ProcId> pivot_sequence;   ///< BFS processor list
  std::vector<Migration> migrations;
  /// Migrations undone by the makespan guard (kMakespanGuarded only).
  std::int64_t rejected_migrations = 0;
  /// Decision-path counters: pivot tasks the gate skipped / passed, and
  /// evaluated attempts that found no qualifying neighbour.
  std::int64_t gate_skips = 0;
  std::int64_t considered = 0;
  std::int64_t rejected_no_gain = 0;
  /// Neighbour evaluations run as sched::LinkProbe trials.
  std::int64_t eval_trials = 0;
  /// The migrations' MoveEngine counters: replay fallbacks, the journal
  /// footprint of guarded migrations and the re-timing counters (zero
  /// when no migration was attempted).
  MoveEngine::Stats engine;
};

struct BsaResult {
  sched::Schedule schedule;
  BsaTrace trace;
  [[nodiscard]] Time schedule_length() const { return schedule.makespan(); }
};

/// Run BSA. The graph must be connected and non-empty; the topology must
/// be connected (and a hypercube under RouteDiscipline::kEcube; otherwise
/// PreconditionError before any work). The returned schedule is complete
/// and valid (see sched::validate).
[[nodiscard]] BsaResult schedule_bsa(const graph::TaskGraph& g,
                                     const net::Topology& topo,
                                     const net::HeterogeneousCostModel& costs,
                                     const BsaOptions& options = {});

/// Throw PreconditionError unless `topo` can carry E-cube routes: a
/// power-of-two processor count whose ids are hypercube vertex addresses
/// (every p ^ (1 << d) a neighbour of p). schedule_bsa runs it under
/// RouteDiscipline::kEcube; the serve tier runs it before queueing.
void check_ecube_topology(const net::Topology& topo);

/// Remove cycles from a link walk starting at `origin`: whenever the walk
/// revisits a processor, the loop between the two visits is cut. Single
/// forward pass with a first-visit position map — O(|links|) amortized.
/// Used by BSA when `prune_route_cycles` is on; exposed for testing.
void prune_link_walk(const net::Topology& topo, std::vector<LinkId>& links,
                     ProcId origin);

}  // namespace bsa::core
