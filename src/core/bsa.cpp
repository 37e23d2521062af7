#include "core/bsa.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "core/pivot.hpp"
#include "network/routing.hpp"
#include "obs/decision_log.hpp"
#include "obs/trace.hpp"
#include "sched/link_probe.hpp"

namespace bsa::core {
namespace {

using sched::Hop;
using sched::Schedule;

/// How an incoming message of the migrating task is affected by a move to
/// the destination processor.
struct IncomingPlan {
  EdgeId edge = kInvalidEdge;
  enum class Kind : unsigned char {
    kBecomesLocal,  ///< predecessor lives on the destination; route freed
    kTruncate,      ///< route already passes the destination (pruning on)
    kExtend,        ///< append one hop destination-ward (paper behaviour)
  } kind = Kind::kExtend;
  /// kTruncate: keep hops [0, keep_hops); arrival = hop keep_hops-1 finish.
  int keep_hops = 0;
  /// Data availability for the new hop (kExtend) or final arrival
  /// (kBecomesLocal / kTruncate).
  Time ready = 0;
};

class BsaRunner {
 public:
  BsaRunner(const graph::TaskGraph& g, const net::Topology& topo,
            const net::HeterogeneousCostModel& costs, const BsaOptions& opt)
      : g_(g),
        topo_(topo),
        costs_(costs),
        opt_(opt),
        sched_(g, topo),
        engine_(sched_, costs, opt.insertion_slots, opt.obs),
        probe_(sched_, costs, opt.insertion_slots) {
    if (opt_.routing == RouteDiscipline::kStaticShortestPath) {
      routing_table_.emplace(topo_);
    }
  }

  BsaResult run() {
    obs::Tracer* const tracer = opt_.obs.tracer;
    const std::uint32_t tid = opt_.obs.trace_tid;

    PivotSelection pv;
    {
      obs::Span span(tracer, "pivot_selection", "bsa", tid);
      pv = select_first_pivot(g_, topo_, costs_);
    }
    trace_.first_pivot = pv.pivot;
    trace_.pivot_cp_lengths = pv.cp_length_by_proc;

    Rng rng(opt_.seed);
    const auto exec_on_pivot = costs_.exec_costs_on(pv.pivot);
    {
      obs::Span span(tracer, "serialization", "bsa", tid);
      trace_.serialization =
          opt_.serialization == SerializationRule::kCpIbOb
              ? serialize(g_, exec_on_pivot, costs_.nominal_comm_costs(), rng)
              : serialize_by_blevel(g_, exec_on_pivot,
                                    costs_.nominal_comm_costs(), rng);
    }

    {
      obs::Span span(tracer, "injection", "bsa", tid);
      inject_serial(pv.pivot, exec_on_pivot);
    }
    trace_.initial_serial_length = sched_.makespan();

    const std::vector<ProcId> bfs = topo_.bfs_order(pv.pivot);
    BSA_REQUIRE(opt_.max_sweeps >= 1, "max_sweeps must be >= 1");
    for (int sweep = 0; sweep < opt_.max_sweeps; ++sweep) {
      sweep_ = sweep;
      const std::size_t migrations_before = trace_.migrations.size();
      for (const ProcId pivot : bfs) {
        trace_.pivot_sequence.push_back(pivot);
        const int phase =
            static_cast<int>(trace_.pivot_sequence.size()) - 1;
        obs::Span span(tracer, "pivot", "bsa", tid);
        span.arg("pivot", pivot);
        span.arg("phase", phase);
        run_phase(pivot, phase);
      }
      if (trace_.migrations.size() == migrations_before) break;
    }
    trace_.engine = engine_.stats();
    trace_.eval_trials = probe_.trials();
    return BsaResult{std::move(sched_), std::move(trace_)};
  }

 private:
  // --- serialization injection -------------------------------------------
  void inject_serial(ProcId pivot, const std::vector<Cost>& exec_on_pivot) {
    Time clock = 0;
    for (const TaskId t : trace_.serialization.order) {
      const Cost dur = exec_on_pivot[static_cast<std::size_t>(t)];
      sched_.place_task(t, pivot, clock, clock + dur);
      clock += dur;
    }
  }

  // --- per-phase migration sweep -----------------------------------------
  void run_phase(ProcId pivot, int phase) {
    const std::vector<TaskId> snapshot = sched_.tasks_on(pivot);
    for (const TaskId t : snapshot) {
      if (sched_.proc_of(t) != pivot) continue;
      consider_task(t, pivot, phase);
    }
  }

  /// DRT of `t` at its current placement plus the VIP (predecessor whose
  /// message arrives last; ties towards the smaller task id).
  struct CurrentArrival {
    Time drt = 0;
    TaskId vip = kInvalidTask;
  };
  [[nodiscard]] CurrentArrival current_arrival(TaskId t) const {
    CurrentArrival out;
    for (const EdgeId e : g_.in_edges(t)) {
      const Time arr = sched_.arrival_of(e);
      const TaskId src = g_.edge_src(e);
      if (out.vip == kInvalidTask || out.drt < arr) {
        out.vip = src;
      } else if (arr == out.drt && src < out.vip) {
        out.vip = src;
      }
      out.drt = std::max(out.drt, arr);
    }
    return out;
  }

  /// One migration attempt of `task` off `pivot`, as the decision log
  /// and the migration trace record it.
  struct Attempt {
    TaskId task;
    ProcId pivot;
    int phase;
    Time old_finish, predicted_finish;
  };
  /// Decision-log value of a time the outcome does not have.
  static constexpr Time kNoTime = std::numeric_limits<Time>::quiet_NaN();

  void consider_task(TaskId t, ProcId pivot, int phase) {
    const CurrentArrival cur = current_arrival(t);
    const Time st = sched_.start_of(t);
    const Time cur_ft = sched_.finish_of(t);

    if (opt_.gate == GateRule::kPaper) {
      const bool delayed = cur.drt < st;
      const bool vip_elsewhere =
          cur.vip != kInvalidTask && sched_.proc_of(cur.vip) != pivot;
      if (!delayed && !vip_elsewhere) {
        ++trace_.gate_skips;
        return;
      }
    }
    ++trace_.considered;

    // Evaluate every neighbour.
    ProcId best_proc = kInvalidProc;
    Time best_ft = kInfiniteTime;
    Time vip_ft = kInfiniteTime;
    const ProcId vip_proc =
        cur.vip == kInvalidTask ? kInvalidProc : sched_.proc_of(cur.vip);
    for (const ProcId py : topo_.neighbors(pivot)) {
      const Time ft = evaluate_neighbor(t, pivot, py);
      if (ft < best_ft) {
        best_ft = ft;
        best_proc = py;
      }
      if (py == vip_proc) vip_ft = ft;
    }
    if (best_proc == kInvalidProc) return;  // isolated processor

    bool via_vip = false;
    ProcId target = kInvalidProc;
    if (best_ft < cur_ft) {
      target = best_proc;
    } else if (opt_.vip_rule && vip_proc != kInvalidProc &&
               vip_proc != pivot && vip_ft != kInfiniteTime &&
               vip_ft <= cur_ft) {
      // Paper §2.3: when the finish time does not improve the task still
      // migrates to its VIP's processor provided the finish time is not
      // increased — co-locating with the VIP lets successors improve.
      target = vip_proc;
      via_vip = true;
    }
    const Attempt a{t, pivot, phase, cur_ft, via_vip ? vip_ft : best_ft};
    if (target == kInvalidProc) {
      ++trace_.rejected_no_gain;
      log_decision(a, obs::DecisionOutcome::kRejectedNoGain, kInvalidProc,
                   kNoTime, kNoTime, kNoTime);
      return;
    }
    commit_migration(a, target, via_vip);
  }

  /// Record one decision-log row (no-op without a decision log).
  void log_decision(const Attempt& a, obs::DecisionOutcome outcome, ProcId to,
                    Time new_finish, Time makespan_before,
                    Time makespan_after) const {
    if (opt_.obs.decision_log == nullptr) return;
    opt_.obs.decision_log->record(obs::MigrationDecision{
        .sweep = sweep_, .phase = a.phase, .pivot = a.pivot, .task = a.task,
        .from = a.pivot, .to = to, .old_finish = a.old_finish,
        .predicted_finish = a.predicted_finish, .new_finish = new_finish,
        .makespan_before = makespan_before, .makespan_after = makespan_after,
        .outcome = outcome});
  }

  // --- incoming-message planning (shared by eval and commit) --------------
  void plan_incoming_into(TaskId t, ProcId py,
                          std::vector<IncomingPlan>& plans) const {
    plans.clear();
    plans.reserve(g_.in_edges(t).size());
    for (const EdgeId e : g_.in_edges(t)) {
      const TaskId src = g_.edge_src(e);
      const ProcId ps = sched_.proc_of(src);
      IncomingPlan plan;
      plan.edge = e;
      if (ps == py) {
        plan.kind = IncomingPlan::Kind::kBecomesLocal;
        plan.ready = sched_.finish_of(src);
        plans.push_back(plan);
        continue;
      }
      if (opt_.prune_route_cycles) {
        // Does the existing route already pass through py?
        const auto& route = sched_.route_of(e);
        ProcId cur = ps;
        bool found = false;
        for (std::size_t k = 0; k < route.size(); ++k) {
          cur = topo_.opposite(route[k].link, cur);
          if (cur == py) {
            plan.kind = IncomingPlan::Kind::kTruncate;
            plan.keep_hops = static_cast<int>(k) + 1;
            plan.ready = route[k].finish;
            found = true;
            break;
          }
        }
        if (found) {
          plans.push_back(plan);
          continue;
        }
      }
      plan.kind = IncomingPlan::Kind::kExtend;
      plan.ready = sched_.arrival_of(e);
      plans.push_back(plan);
    }
    // Extensions are scheduled in data-availability order (deterministic).
    std::sort(plans.begin(), plans.end(),
              [](const IncomingPlan& a, const IncomingPlan& b) {
                if (a.ready != b.ready) return a.ready < b.ready;
                return a.edge < b.edge;
              });
  }

  /// Route prescribed by the static discipline into a reused buffer
  /// (precondition: a static discipline is active).
  void static_route_into(ProcId from, ProcId to,
                         std::vector<LinkId>& out) const {
    if (opt_.routing == RouteDiscipline::kEcube) {
      net::ecube_route_into(topo_, from, to, out);
      return;
    }
    BSA_ASSERT(routing_table_.has_value(), "routing table not built");
    routing_table_->route_into(from, to, out);
  }

  /// Static-routing evaluation: every incoming message is re-routed from
  /// scratch along the static route, on a probe trial that hides the
  /// (to-be-cleared) old routes.
  [[nodiscard]] Time evaluate_neighbor_static(TaskId t, ProcId py) {
    probe_.begin();
    Time drt = 0;
    for (const EdgeId e : g_.in_edges(t)) {
      probe_.hide(e, 0);
      if (sched_.proc_of(g_.edge_src(e)) == py) {
        drt = std::max(drt, sched_.finish_of(g_.edge_src(e)));
      }
    }
    crossing_in_edges_into(sched_, t, py, order_);
    for (const EdgeId e : order_) {
      const TaskId src = g_.edge_src(e);
      static_route_into(sched_.proc_of(src), py, route_links_);
      drt = std::max(drt, probe_.route(e, route_links_,
                                       sched_.finish_of(src)));
    }
    return slot_finish(t, py, drt);
  }

  /// Incremental-routing evaluation: a probe trial hides the hops the
  /// migration frees or truncates, then extends the remaining messages by
  /// the pivot--py link in plan order.
  [[nodiscard]] Time evaluate_neighbor_incremental(TaskId t, ProcId pivot,
                                                   ProcId py) {
    const LinkId link = topo_.link_between(pivot, py);
    BSA_ASSERT(link != kInvalidLink, "neighbour without link");
    plan_incoming_into(t, py, plans_);
    probe_.begin();
    for (const IncomingPlan& plan : plans_) {
      if (plan.kind != IncomingPlan::Kind::kExtend) {
        probe_.hide(plan.edge, plan.keep_hops);
      }
    }
    Time drt = 0;
    for (const IncomingPlan& plan : plans_) {
      drt = std::max(drt, plan.kind == IncomingPlan::Kind::kExtend
                              ? probe_.route(plan.edge, {&link, 1}, plan.ready)
                              : plan.ready);
    }
    return slot_finish(t, py, drt);
  }

  /// Tentative finish time of `t` if migrated from `pivot` to neighbour
  /// `py`. Does not modify the schedule.
  [[nodiscard]] Time evaluate_neighbor(TaskId t, ProcId pivot, ProcId py) {
    return opt_.routing == RouteDiscipline::kIncremental
               ? evaluate_neighbor_incremental(t, pivot, py)
               : evaluate_neighbor_static(t, py);
  }

  /// Finish of `t` on `py` when started by the slot rule at data-ready
  /// time `drt`.
  [[nodiscard]] Time slot_finish(TaskId t, ProcId py, Time drt) const {
    const Time dur = costs_.exec_cost(t, py);
    return sched::task_start(sched_, py, drt, dur, opt_.insertion_slots) + dur;
  }

  // --- migration commit ----------------------------------------------------

  /// The schedule mutations of one migration of `t` from `pivot` to `py`:
  /// re-route incoming messages, place the task, re-route outgoing
  /// messages.
  void apply_migration_mutations(TaskId t, ProcId pivot, ProcId py) {
    if (opt_.routing == RouteDiscipline::kIncremental) {
      commit_incoming_incremental(t, pivot, py);
    } else {
      commit_incoming_static(t, py);
    }

    // Place the task at its destination slot.
    Time drt = 0;
    for (const EdgeId e : g_.in_edges(t)) {
      drt = std::max(drt, sched_.arrival_of(e));
    }
    const Time dur = costs_.exec_cost(t, py);
    const Time start =
        sched::task_start(sched_, py, drt, dur, opt_.insertion_slots);
    sched_.place_task(t, py, start, start + dur);

    if (opt_.routing == RouteDiscipline::kIncremental) {
      commit_outgoing_incremental(t, pivot, py, start + dur);
    } else {
      commit_outgoing_static(t, py, start + dur);
    }
  }

  void commit_migration(const Attempt& a, ProcId py, bool via_vip) {
    const TaskId t = a.task;
    // A migration whose re-routed messages stretch the schedule is rolled
    // back (the task's own finish improving is not allowed to push its
    // successors past the old SL): a guarded migration is journaled, and
    // undone in O(touched) on reject.
    const bool guarded = opt_.policy == MigrationPolicy::kMakespanGuarded;
    const Time makespan_before = guarded ? sched_.makespan() : Time{0};

    engine_.begin(t, guarded);
    apply_migration_mutations(t, a.pivot, py);

    // Bubble up: earliest times under the new orders; replay on the rare
    // order cycle introduced by re-issued outgoing routes.
    const Time makespan_after = engine_.settle();

    if (guarded && makespan_before < makespan_after) {
      ++trace_.rejected_migrations;
      engine_.discard();
      log_decision(a, obs::DecisionOutcome::kRejectedMakespanGuard, py,
                   kNoTime, makespan_before, makespan_after);
      return;
    }
    engine_.keep();

    const Time new_finish = sched_.finish_of(t);
    trace_.migrations.push_back(Migration{t, a.pivot, py, a.old_finish,
                                          a.predicted_finish, new_finish,
                                          makespan_after, a.phase, via_vip});
    log_decision(a,
                 via_vip ? obs::DecisionOutcome::kCommittedVip
                         : obs::DecisionOutcome::kCommitted,
                 py, new_finish, guarded ? makespan_before : kNoTime,
                 makespan_after);
  }

  /// Incremental incoming commit: free / truncate / extend routes in
  /// plan order (mirrors the incremental evaluation).
  void commit_incoming_incremental(TaskId t, ProcId pivot, ProcId py) {
    const LinkId link = topo_.link_between(pivot, py);
    plan_incoming_into(t, py, plans_);
    sched_.unplace_task(t);
    for (const IncomingPlan& plan : plans_) {
      switch (plan.kind) {
        case IncomingPlan::Kind::kBecomesLocal:
          sched_.clear_route(plan.edge);
          break;
        case IncomingPlan::Kind::kTruncate: {
          std::vector<Hop> hops = sched_.route_of(plan.edge);
          sched_.clear_route(plan.edge);
          hops.resize(static_cast<std::size_t>(plan.keep_hops));
          sched_.set_route(plan.edge, std::move(hops));
          break;
        }
        case IncomingPlan::Kind::kExtend:
          sched::book_route(sched_, costs_, plan.edge, {&link, 1}, plan.ready,
                            opt_.insertion_slots);
          break;
      }
    }
  }

  /// Static incoming commit: clear every incoming route, then re-route
  /// crossing messages along the static routes in the same deterministic
  /// order used by the static evaluation.
  void commit_incoming_static(TaskId t, ProcId py) {
    crossing_in_edges_into(sched_, t, py, order_);
    sched_.unplace_task(t);
    for (const EdgeId e : g_.in_edges(t)) sched_.clear_route(e);
    for (const EdgeId e : order_) {
      const TaskId src = g_.edge_src(e);
      static_route_into(sched_.proc_of(src), py, route_links_);
      sched::book_route(sched_, costs_, e, route_links_, sched_.finish_of(src),
                        opt_.insertion_slots);
    }
  }

  /// Incremental outgoing commit: co-located successors become local; all
  /// others get their route re-issued with the extra py->pivot first hop.
  void commit_outgoing_incremental(TaskId t, ProcId pivot, ProcId py,
                                   Time ft_estimate) {
    const LinkId link = topo_.link_between(pivot, py);
    for (const EdgeId e : g_.out_edges(t)) {
      const TaskId dst = g_.edge_dst(e);
      if (sched_.proc_of(dst) == py) {
        sched_.clear_route(e);
        continue;
      }
      auto& links = route_links_;
      links.clear();
      links.push_back(link);
      for (const Hop& h : sched_.route_of(e)) links.push_back(h.link);
      sched_.clear_route(e);
      if (opt_.prune_route_cycles) prune_link_walk(topo_, links, py);
      sched::book_route(sched_, costs_, e, links, ft_estimate,
                        opt_.insertion_slots);
    }
  }

  /// Static outgoing commit: re-route every crossing outgoing message
  /// along its static route from py.
  void commit_outgoing_static(TaskId t, ProcId py, Time ft_estimate) {
    for (const EdgeId e : g_.out_edges(t)) {
      const TaskId dst = g_.edge_dst(e);
      const ProcId pd = sched_.proc_of(dst);
      sched_.clear_route(e);
      if (pd == py) continue;
      static_route_into(py, pd, route_links_);
      sched::book_route(sched_, costs_, e, route_links_, ft_estimate,
                        opt_.insertion_slots);
    }
  }

  const graph::TaskGraph& g_;
  const net::Topology& topo_;
  const net::HeterogeneousCostModel& costs_;
  BsaOptions opt_;
  Schedule sched_;
  BsaTrace trace_;
  /// Only built for RouteDiscipline::kStaticShortestPath.
  std::optional<net::RoutingTable> routing_table_;
  /// Transaction, re-timing and replay fallback of every migration.
  MoveEngine engine_;
  /// Trial bookings of the neighbour evaluations.
  sched::LinkProbe probe_;
  /// Buffers reused by evaluation and commit (length-reset per call, so
  /// steady-state evaluation performs no heap allocation).
  std::vector<IncomingPlan> plans_;  // plan_incoming_into output
  std::vector<EdgeId> order_;        // static incoming order
  std::vector<LinkId> route_links_;  // static_route_into output
  /// Current BFS sweep number, for decision-log rows.
  int sweep_ = 0;
};

}  // namespace

BsaResult schedule_bsa(const graph::TaskGraph& g, const net::Topology& topo,
                       const net::HeterogeneousCostModel& costs,
                       const BsaOptions& options) {
  BSA_REQUIRE(g.num_tasks() >= 1, "empty task graph");
  BSA_REQUIRE(costs.num_tasks() == g.num_tasks() &&
                  costs.num_processors() == topo.num_processors() &&
                  costs.num_edges() == g.num_edges() &&
                  costs.num_links() == topo.num_links(),
              "cost model does not match graph/topology");
  // Checked up front rather than mid-run.
  if (options.routing == RouteDiscipline::kEcube) check_ecube_topology(topo);
  BsaRunner runner(g, topo, costs, options);
  return runner.run();
}

void check_ecube_topology(const net::Topology& topo) {
  // E-cube routes flip address bits, so every p ^ (1 << d) must be a
  // neighbour of p.
  const int procs = topo.num_processors();
  BSA_REQUIRE(std::has_single_bit(static_cast<unsigned>(procs)),
              "route=ecube needs a hypercube topology: "
                  << procs << " processors is not a power of two");
  for (ProcId p = 0; p < procs; ++p) {
    for (int bit = 1; bit < procs; bit <<= 1) {
      BSA_REQUIRE(topo.link_between(p, p ^ bit) != kInvalidLink,
                  "route=ecube needs hypercube vertex addressing: no link "
                      << p << "-" << (p ^ bit));
    }
  }
}

void prune_link_walk(const net::Topology& topo, std::vector<LinkId>& links,
                     ProcId origin) {
  BSA_REQUIRE(origin >= 0 && origin < topo.num_processors(),
              "bad walk origin " << origin);
  std::vector<int> first_pos(static_cast<std::size_t>(topo.num_processors()),
                             -1);
  std::vector<ProcId> walk{origin};  // walk[i]: processor after i kept links
  std::vector<LinkId> kept;
  kept.reserve(links.size());
  first_pos[static_cast<std::size_t>(origin)] = 0;
  for (const LinkId l : links) {
    const ProcId q = topo.opposite(l, walk.back());
    const int fp = first_pos[static_cast<std::size_t>(q)];
    if (fp >= 0) {
      // Revisit: cut the loop back to q's first visit. Each link enters
      // and leaves `kept` at most once, so the pass stays linear.
      while (static_cast<int>(walk.size()) - 1 > fp) {
        first_pos[static_cast<std::size_t>(walk.back())] = -1;
        walk.pop_back();
        kept.pop_back();
      }
    } else {
      first_pos[static_cast<std::size_t>(q)] =
          static_cast<int>(walk.size());
      walk.push_back(q);
      kept.push_back(l);
    }
  }
  links = std::move(kept);
}

}  // namespace bsa::core
