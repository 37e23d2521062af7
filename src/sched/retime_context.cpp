#include "sched/retime_context.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>

#include "common/check.hpp"

namespace bsa::sched {
namespace {

/// Label distance between neighbours after a relabel; an insertion takes
/// the midpoint of its gap, so ~32 insertions fit into one gap before the
/// list is relabelled.
constexpr std::uint64_t kLabelSpacing = std::uint64_t{1} << 32;

}  // namespace

RetimeContext::RetimeContext(Schedule& s,
                             const net::HeterogeneousCostModel& costs)
    : s_(&s),
      costs_(&costs),
      g_(&s.task_graph()),
      num_tasks_(s.task_graph().num_tasks()) {
  const auto n = static_cast<std::size_t>(num_tasks_);
  start_.resize(n, 0);
  finish_.resize(n, 0);
  dur_.resize(n, 0);
  node_edge_.resize(n, kInvalidEdge);
  node_k_.resize(n, 0);
  node_link_.resize(n, kInvalidLink);
  task_active_.resize(n, 0);
  hop_nodes_.resize(static_cast<std::size_t>(g_->num_edges()));
  arrival_node_.resize(static_cast<std::size_t>(g_->num_edges()), kNone);
  departure_node_.resize(static_cast<std::size_t>(g_->num_edges()), kNone);
  proc_prev_.resize(n, kNone);
  proc_next_.resize(n, kNone);
  link_prev_.resize(n, kNone);
  link_next_.resize(n, kNone);
  link_pos_.resize(n, kNone);
  node_slot_.resize(n, kNone);
  node_label_.resize(n, 0);
  mark_.resize(n, 0);
  indeg_.resize(n, 0);
  adopt_schedule();
}

// --- node pool --------------------------------------------------------------

int RetimeContext::alloc_hop_node(EdgeId e, int k, LinkId link) {
  int v = 0;
  if (!free_.empty()) {
    v = free_.back();
    free_.pop_back();
  } else {
    v = static_cast<int>(start_.size());
    const auto need = static_cast<std::size_t>(v) + 1;
    start_.resize(need, 0);
    finish_.resize(need, 0);
    dur_.resize(need, 0);
    node_edge_.resize(need, kInvalidEdge);
    node_k_.resize(need, 0);
    node_link_.resize(need, kInvalidLink);
    link_prev_.resize(need, kNone);
    link_next_.resize(need, kNone);
    link_pos_.resize(need, kNone);
    node_slot_.resize(need, kNone);
    node_label_.resize(need, 0);
    mark_.resize(need, 0);
    indeg_.resize(need, 0);
  }
  const auto vi = static_cast<std::size_t>(v);
  node_edge_[vi] = e;
  node_k_[vi] = k;
  node_link_[vi] = link;
  dur_[vi] = costs_->comm_cost(e, link);
  link_prev_[vi] = kNone;
  link_next_[vi] = kNone;
  return v;
}

void RetimeContext::free_edge_nodes(EdgeId e) {
  auto& nodes = hop_nodes_[static_cast<std::size_t>(e)];
  // Pushed in reverse so a rebuild of the same chain pops them in hop
  // order again.
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    const int v = *it;
    if (node_slot_[static_cast<std::size_t>(v)] != kNone) release_slot(v);
    node_edge_[static_cast<std::size_t>(v)] = kInvalidEdge;
    free_.push_back(v);
  }
  nodes.clear();
}

// --- structure ---------------------------------------------------------------

void RetimeContext::rebuild_edge_hops(EdgeId e) {
  free_edge_nodes(e);
  auto& nodes = hop_nodes_[static_cast<std::size_t>(e)];
  const auto& route = s_->route_of(e);
  nodes.reserve(route.size());
  for (int k = 0; k < static_cast<int>(route.size()); ++k) {
    const Hop& h = route[static_cast<std::size_t>(k)];
    const int v = alloc_hop_node(e, k, h.link);
    start_[static_cast<std::size_t>(v)] = h.start;
    finish_[static_cast<std::size_t>(v)] = h.finish;
    nodes.push_back(v);
  }
  const auto ei = static_cast<std::size_t>(e);
  const TaskId src = g_->edge_src(e);
  const TaskId dst = g_->edge_dst(e);
  if (!nodes.empty()) {
    arrival_node_[ei] = nodes.back();
    departure_node_[ei] = nodes.front();
  } else {
    arrival_node_[ei] = task_active_[static_cast<std::size_t>(src)] ? src : kNone;
    departure_node_[ei] = task_active_[static_cast<std::size_t>(dst)] ? dst : kNone;
  }
}

void RetimeContext::place_after_preds(int v) {
  // Right behind its latest already-placed predecessor: the order stays
  // close to the time axis, which keeps the repairs of the node's other
  // edges local. Any edge this leaves backwards is repaired afterwards.
  int best = kNone;
  for_each_pred(v, [&](int u) {
    if (node_slot_[static_cast<std::size_t>(u)] == kNone) return;
    if (best == kNone || label(u) > label(best)) best = u;
  });
  assign_slot(v, new_slot_after(
      best == kNone ? kNone : node_slot_[static_cast<std::size_t>(best)]));
}

void RetimeContext::assign_slot(int v, int slot) {
  node_slot_[static_cast<std::size_t>(v)] = slot;
  slot_node_[static_cast<std::size_t>(slot)] = v;
  node_label_[static_cast<std::size_t>(v)] =
      slot_label_[static_cast<std::size_t>(slot)];
}

void RetimeContext::relink_task(TaskId t) {
  const auto ti = static_cast<std::size_t>(t);
  const TaskId a = proc_prev_[ti];
  const TaskId b = proc_next_[ti];
  if (a != kNone) proc_next_[static_cast<std::size_t>(a)] = b;
  if (b != kNone) {
    proc_prev_[static_cast<std::size_t>(b)] = a;
    seed(b);
  }
  // Processor orders are sorted by start time, so t's position is found
  // by binary search; equal starts (zero-length tasks) are scanned.
  const auto& order = s_->tasks_on(s_->proc_of(t));
  const Time st = s_->start_of(t);
  auto it = std::lower_bound(
      order.begin(), order.end(), st,
      [&](TaskId u, Time x) { return s_->start_of(u) < x; });
  while (it != order.end() && *it != t && s_->start_of(*it) == st) ++it;
  if (it == order.end() || *it != t) it = std::find(order.begin(), order.end(), t);
  BSA_ASSERT(it != order.end(), "task " << t << " missing from its processor");
  const TaskId c = it == order.begin() ? kNone : *(it - 1);
  const TaskId d = it + 1 == order.end() ? kNone : *(it + 1);
  proc_prev_[ti] = c;
  proc_next_[ti] = d;
  if (c != kNone) proc_next_[static_cast<std::size_t>(c)] = t;
  if (d != kNone) {
    proc_prev_[static_cast<std::size_t>(d)] = t;
    seed(d);
  }
  seed(t);
}

void RetimeContext::relink_link_chain(LinkId l) {
  const auto& bookings = s_->bookings_on(l);
  int prev = kNone;
  for (std::size_t i = 0; i < bookings.size(); ++i) {
    const LinkBooking& b = bookings[i];
    const int v = hop_nodes_[static_cast<std::size_t>(b.edge)]
                            [static_cast<std::size_t>(b.hop_index)];
    const auto vi = static_cast<std::size_t>(v);
    if (link_prev_[vi] != prev) {
      link_prev_[vi] = prev;
      seed(v);
    }
    link_pos_[vi] = static_cast<int>(i);
    if (i + 1 < bookings.size()) {
      const LinkBooking& nb = bookings[i + 1];
      link_next_[vi] = hop_nodes_[static_cast<std::size_t>(nb.edge)]
                                 [static_cast<std::size_t>(nb.hop_index)];
    } else {
      link_next_[vi] = kNone;
    }
    prev = v;
  }
}

void RetimeContext::build() {
  for (TaskId t = 0; t < num_tasks_; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    task_active_[ti] = s_->is_placed(t) ? 1 : 0;
    if (s_->is_placed(t)) {
      start_[ti] = s_->start_of(t);
      finish_[ti] = s_->finish_of(t);
      dur_[ti] = costs_->exec_cost(t, s_->proc_of(t));
    }
    proc_prev_[ti] = kNone;
    proc_next_[ti] = kNone;
  }
  std::fill(node_slot_.begin(), node_slot_.end(), kNone);
  for (EdgeId e = 0; e < g_->num_edges(); ++e) rebuild_edge_hops(e);
  for (ProcId p = 0; p < s_->topology().num_processors(); ++p) {
    const auto& order = s_->tasks_on(p);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto ui = static_cast<std::size_t>(order[i]);
      proc_prev_[ui] = i == 0 ? kNone : order[i - 1];
      proc_next_[ui] = i + 1 < order.size() ? order[i + 1] : kNone;
    }
  }
  for (LinkId l = 0; l < s_->topology().num_links(); ++l) {
    relink_link_chain(l);
  }
  seeds_.clear();
  forced_.clear();
  time_undo_.clear();
  pending_task_ = kInvalidTask;
  last_task_ = kInvalidTask;
  last_links_.clear();
  cyclic_ = !order_from_scratch();
  count_nodes();
}

void RetimeContext::apply_structure_delta(TaskId t) {
  seeds_.clear();
  forced_.clear();
  const auto ti = static_cast<std::size_t>(t);
  start_[ti] = s_->start_of(t);
  finish_[ti] = s_->finish_of(t);
  dur_[ti] = costs_->exec_cost(t, s_->proc_of(t));
  relink_task(t);
  for (const EdgeId e : g_->in_edges(t)) rebuild_edge_hops(e);
  for (const EdgeId e : g_->out_edges(t)) {
    rebuild_edge_hops(e);
    const TaskId dst = g_->edge_dst(e);
    if (task_active_[static_cast<std::size_t>(dst)]) seed(dst);
  }
  for (const LinkId l : last_links_) relink_link_chain(l);
  // t and the re-allocated hop nodes take new places in the order, in
  // dependency order: incoming chains, t, outgoing chains. Their
  // successors are recomputed unconditionally (a recycled id can keep its
  // link successor's predecessor pointer while its times changed), and
  // their out-edges are checked by repair_order.
  release_slot(t);
  for (const EdgeId e : g_->in_edges(t)) {
    for (const int v : hop_nodes_[static_cast<std::size_t>(e)]) {
      place_after_preds(v);
      seed(v);
      forced_.push_back(v);
    }
  }
  place_after_preds(t);
  forced_.push_back(t);
  for (const EdgeId e : g_->out_edges(t)) {
    for (const int v : hop_nodes_[static_cast<std::size_t>(e)]) {
      place_after_preds(v);
      seed(v);
      forced_.push_back(v);
    }
  }
}

// --- dependency enumeration --------------------------------------------------

template <typename Fn>
void RetimeContext::for_each_pred(int v, Fn&& fn) const {
  if (is_task_node(v)) {
    const auto t = static_cast<TaskId>(v);
    if (proc_prev_[static_cast<std::size_t>(t)] != kNone) {
      fn(proc_prev_[static_cast<std::size_t>(t)]);
    }
    for (const EdgeId e : g_->in_edges(t)) {
      const int u = arrival_node_[static_cast<std::size_t>(e)];
      if (u != kNone) fn(u);
    }
    return;
  }
  const EdgeId e = node_edge_[static_cast<std::size_t>(v)];
  const int k = node_k_[static_cast<std::size_t>(v)];
  if (k == 0) {
    const TaskId src = g_->edge_src(e);
    BSA_ASSERT(task_active_[static_cast<std::size_t>(src)],
               "routed message with unplaced source");
    fn(src);
  } else {
    fn(hop_nodes_[static_cast<std::size_t>(e)][static_cast<std::size_t>(k - 1)]);
  }
  if (link_prev_[static_cast<std::size_t>(v)] != kNone) {
    fn(link_prev_[static_cast<std::size_t>(v)]);
  }
}

template <typename Fn>
void RetimeContext::for_each_succ(int v, Fn&& fn) const {
  if (is_task_node(v)) {
    const auto t = static_cast<TaskId>(v);
    if (proc_next_[static_cast<std::size_t>(t)] != kNone) {
      fn(proc_next_[static_cast<std::size_t>(t)]);
    }
    for (const EdgeId e : g_->out_edges(t)) {
      const int w = departure_node_[static_cast<std::size_t>(e)];
      if (w != kNone) fn(w);
    }
    return;
  }
  const EdgeId e = node_edge_[static_cast<std::size_t>(v)];
  const int k = node_k_[static_cast<std::size_t>(v)];
  const auto& nodes = hop_nodes_[static_cast<std::size_t>(e)];
  if (static_cast<std::size_t>(k + 1) < nodes.size()) {
    fn(nodes[static_cast<std::size_t>(k + 1)]);
  } else {
    const TaskId dst = g_->edge_dst(e);
    if (task_active_[static_cast<std::size_t>(dst)]) fn(dst);
  }
  if (link_next_[static_cast<std::size_t>(v)] != kNone) {
    fn(link_next_[static_cast<std::size_t>(v)]);
  }
}

// --- topological order -------------------------------------------------------

int RetimeContext::new_slot_after(int a) {
  int b = 0;
  if (!free_slots_.empty()) {
    b = free_slots_.back();
    free_slots_.pop_back();
  } else {
    b = static_cast<int>(slot_label_.size());
    slot_label_.push_back(0);
    slot_next_.push_back(kNone);
    slot_prev_.push_back(kNone);
    slot_node_.push_back(kNone);
  }
  const auto bi = static_cast<std::size_t>(b);
  const int next = a == kNone ? head_slot_ : slot_next_[static_cast<std::size_t>(a)];
  const auto gap = [&]() -> Label {
    const Label lo = a == kNone ? 0 : slot_label_[static_cast<std::size_t>(a)];
    const Label hi = next == kNone ? lo + 2 * kLabelSpacing
                                   : slot_label_[static_cast<std::size_t>(next)];
    return hi - lo;
  };
  if (gap() < 2) relabel_all();
  const Label lo = a == kNone ? 0 : slot_label_[static_cast<std::size_t>(a)];
  slot_label_[bi] = lo + gap() / 2;
  slot_prev_[bi] = a;
  slot_next_[bi] = next;
  if (a == kNone) {
    head_slot_ = b;
  } else {
    slot_next_[static_cast<std::size_t>(a)] = b;
  }
  if (next == kNone) {
    tail_slot_ = b;
  } else {
    slot_prev_[static_cast<std::size_t>(next)] = b;
  }
  return b;
}

void RetimeContext::release_slot(int v) {
  const int s = node_slot_[static_cast<std::size_t>(v)];
  const auto si = static_cast<std::size_t>(s);
  const int prev = slot_prev_[si];
  const int next = slot_next_[si];
  if (prev == kNone) {
    head_slot_ = next;
  } else {
    slot_next_[static_cast<std::size_t>(prev)] = next;
  }
  if (next == kNone) {
    tail_slot_ = prev;
  } else {
    slot_prev_[static_cast<std::size_t>(next)] = prev;
  }
  slot_node_[si] = kNone;
  free_slots_.push_back(s);
  node_slot_[static_cast<std::size_t>(v)] = kNone;
}

void RetimeContext::relabel_all() {
  Label l = kLabelSpacing;
  for (int s = head_slot_; s != kNone; s = slot_next_[static_cast<std::size_t>(s)]) {
    slot_label_[static_cast<std::size_t>(s)] = l;
    node_label_[static_cast<std::size_t>(slot_node_[static_cast<std::size_t>(s)])] = l;
    l += kLabelSpacing;
  }
}

bool RetimeContext::order_from_scratch() {
  slot_label_.clear();
  slot_next_.clear();
  slot_prev_.clear();
  slot_node_.clear();
  free_slots_.clear();
  head_slot_ = tail_slot_ = kNone;
  // Live nodes, tasks first then hops in edge order.
  std::vector<int> live;
  for (TaskId t = 0; t < num_tasks_; ++t) {
    if (task_active_[static_cast<std::size_t>(t)]) live.push_back(t);
  }
  for (const auto& nodes : hop_nodes_) {
    live.insert(live.end(), nodes.begin(), nodes.end());
  }
  for (const int v : live) indeg_[static_cast<std::size_t>(v)] = 0;
  for (const int v : live) {
    for_each_succ(v, [&](int w) { ++indeg_[static_cast<std::size_t>(w)]; });
  }
  // Kahn by start time: the initial order follows the schedule's time
  // axis, which keeps later order repairs local.
  using Ready = std::pair<Time, int>;
  std::vector<Ready> ready;
  const auto push = [&](int v) {
    ready.emplace_back(start_[static_cast<std::size_t>(v)], v);
    std::push_heap(ready.begin(), ready.end(), std::greater<>{});
  };
  for (const int v : live) {
    if (indeg_[static_cast<std::size_t>(v)] == 0) push(v);
  }
  std::size_t placed = 0;
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
    const int v = ready.back().second;
    ready.pop_back();
    assign_slot(v, new_slot_after(tail_slot_));
    ++placed;
    for_each_succ(v, [&](int w) {
      if (--indeg_[static_cast<std::size_t>(w)] == 0) push(w);
    });
  }
  // Nodes on or behind a cycle stay unplaced; the context refuses
  // migrations until it is rebuilt.
  return placed == live.size();
}

bool RetimeContext::repair_order() {
  // Edges that may point backwards: every new edge ends at a seed, and a
  // re-allocated hop node took a fresh slot, so its out-edges (to a link
  // successor that kept its predecessor id) are checked too.
  bool ok = true;
  for (const int v : seeds_) {
    if (!ok) break;
    for_each_pred(v, [&](int u) {
      if (ok && label(u) > label(v)) ok = reorder(u, v);
    });
  }
  for (const int u : forced_) {
    if (!ok) break;
    for_each_succ(u, [&](int w) {
      if (ok && label(u) > label(w)) ok = reorder(u, w);
    });
  }
  return ok;
}

bool RetimeContext::reorder(int u, int v) {
  // Pearce-Kelly: only nodes strictly between label(v) and label(u) can
  // be out of order after adding u -> v. Forward from v and backward from
  // u inside that window; reaching u from v closes a cycle.
  const Label lb = label(v);
  const Label ub = label(u);
  const auto in_window = [&](int w) {
    const Label lw = label(w);
    return lw > lb && lw < ub && mark_[static_cast<std::size_t>(w)] != epoch_;
  };
  ++epoch_;
  fwd_.clear();
  stack_.assign(1, v);
  mark_[static_cast<std::size_t>(v)] = epoch_;
  bool cycle = false;
  while (!stack_.empty() && !cycle) {
    const int x = stack_.back();
    stack_.pop_back();
    fwd_.push_back(x);
    for_each_succ(x, [&](int w) {
      if (w == u) {
        cycle = true;
      } else if (in_window(w)) {
        mark_[static_cast<std::size_t>(w)] = epoch_;
        stack_.push_back(w);
      }
    });
  }
  if (cycle) return false;
  bwd_.clear();
  stack_.assign(1, u);
  mark_[static_cast<std::size_t>(u)] = epoch_;
  while (!stack_.empty()) {
    const int x = stack_.back();
    stack_.pop_back();
    bwd_.push_back(x);
    for_each_pred(x, [&](int w) {
      if (in_window(w)) {
        mark_[static_cast<std::size_t>(w)] = epoch_;
        stack_.push_back(w);
      }
    });
  }
  // The affected nodes swap slots: u's ancestors first, then v's
  // descendants, each group keeping its relative order.
  const auto by_label = [&](int a, int b) { return label(a) < label(b); };
  std::sort(fwd_.begin(), fwd_.end(), by_label);
  std::sort(bwd_.begin(), bwd_.end(), by_label);
  slots_.clear();
  std::merge(bwd_.begin(), bwd_.end(), fwd_.begin(), fwd_.end(),
             std::back_inserter(slots_), by_label);
  for (int& x : slots_) x = node_slot_[static_cast<std::size_t>(x)];
  std::size_t i = 0;
  for (const auto* group : {&bwd_, &fwd_}) {
    for (const int x : *group) assign_slot(x, slots_[i++]);
  }
  return true;
}

// --- change-driven sweep -----------------------------------------------------

void RetimeContext::LabelQueue::file(Label key, int v) {
  const int b = bucket(key);
  buckets_[static_cast<std::size_t>(b)].emplace_back(key, v);
  if (b > 0) nonempty_ |= std::uint64_t{1} << (b - 1);
}

void RetimeContext::LabelQueue::push(Label key, int v) {
  file(key, v);
  ++size_;
}

int RetimeContext::LabelQueue::pop() {
  if (buckets_[0].empty()) {
    // Redistribute the first non-empty bucket around its minimum; every
    // entry lands in a lower bucket, the minimum in bucket 0.
    const int i = std::countr_zero(nonempty_) + 1;
    nonempty_ &= nonempty_ - 1;
    auto& b = buckets_[static_cast<std::size_t>(i)];
    last_ = std::min_element(b.begin(), b.end())->first;
    for (const auto& [key, v] : b) file(key, v);
    b.clear();
  }
  const int v = buckets_[0].back().second;
  buckets_[0].pop_back();
  --size_;
  return v;
}

void RetimeContext::sweep() {
  ++epoch_;
  queue_.restart();
  const auto push = [&](int w) {
    if (mark_[static_cast<std::size_t>(w)] == epoch_) return;
    mark_[static_cast<std::size_t>(w)] = epoch_;
    queue_.push(label(w), w);
  };
  for (const int v : seeds_) push(v);
  for (const int v : forced_) for_each_succ(v, push);
  // Popping in label order visits every predecessor of a node before the
  // node itself, so each node is recomputed at most once, from final
  // inputs. Nodes never reached keep their (fixpoint) times.
  while (!queue_.empty()) {
    const int v = queue_.pop();
    ++stats_.nodes_recomputed;
    const auto vi = static_cast<std::size_t>(v);
    Time st = 0;
    for_each_pred(v, [&](int u) {
      st = std::max(st, finish_[static_cast<std::size_t>(u)]);
    });
    const Time fin = st + dur_[vi];
    if (st == start_[vi] && fin == finish_[vi]) continue;
    // Moved: journal the previous times for undo_migration and write the
    // node back (a hop's booking position comes from its link chain).
    time_undo_.push_back(TimeUndo{v, start_[vi], finish_[vi]});
    const bool finish_moved = fin != finish_[vi];
    start_[vi] = st;
    finish_[vi] = fin;
    if (is_task_node(v)) {
      s_->set_task_times(static_cast<TaskId>(v), st, fin);
    } else {
      s_->set_hop_times(node_edge_[vi], node_k_[vi], st, fin,
                        static_cast<std::size_t>(link_pos_[vi]));
    }
    if (finish_moved) for_each_succ(v, push);
  }
}

Time RetimeContext::task_makespan() const {
  Time mk = 0;
  for (TaskId t = 0; t < num_tasks_; ++t) {
    if (task_active_[static_cast<std::size_t>(t)]) {
      mk = std::max(mk, finish_[static_cast<std::size_t>(t)]);
    }
  }
  return mk;
}

void RetimeContext::count_nodes() {
  stats_.node_count = s_->num_placed() +
                      static_cast<std::int64_t>(start_.size()) - num_tasks_ -
                      static_cast<std::int64_t>(free_.size());
}

// --- public API --------------------------------------------------------------

void RetimeContext::adopt_schedule() {
  ++stats_.full_rebuilds;
  build();
}

bool RetimeContext::retime_full(Time* makespan) {
  ++stats_.full_rebuilds;
  build();
  if (cyclic_) return false;
  seeds_.clear();
  for (TaskId t = 0; t < num_tasks_; ++t) {
    if (task_active_[static_cast<std::size_t>(t)]) seed(t);
  }
  for (const auto& nodes : hop_nodes_) {
    seeds_.insert(seeds_.end(), nodes.begin(), nodes.end());
  }
  sweep();
  if (makespan != nullptr) *makespan = task_makespan();
  return true;
}

void RetimeContext::begin_migration(TaskId t) {
  BSA_REQUIRE(t >= 0 && t < num_tasks_, "task id " << t << " out of range");
  BSA_REQUIRE(s_->is_placed(t), "migration of unplaced task " << t);
  BSA_REQUIRE(!cyclic_, "re-timing context holds cyclic orders: undo the "
                        "failed migration or adopt the replayed schedule");
  pending_task_ = t;
  pre_links_.clear();
  for (const EdgeId e : g_->in_edges(t)) {
    for (const Hop& h : s_->route_of(e)) pre_links_.push_back(h.link);
  }
  for (const EdgeId e : g_->out_edges(t)) {
    for (const Hop& h : s_->route_of(e)) pre_links_.push_back(h.link);
  }
}

bool RetimeContext::retime_migration(TaskId t, Time* makespan) {
  BSA_REQUIRE(pending_task_ == t,
              "retime_migration(" << t << ") without matching begin_migration");
  BSA_REQUIRE(s_->is_placed(t), "retime delta for unplaced task " << t);
  pending_task_ = kInvalidTask;
  // Re-link the links of the old routes and of the current ones.
  last_task_ = t;
  last_links_ = pre_links_;
  for (const EdgeId e : g_->in_edges(t)) {
    for (const Hop& h : s_->route_of(e)) last_links_.push_back(h.link);
  }
  for (const EdgeId e : g_->out_edges(t)) {
    for (const Hop& h : s_->route_of(e)) last_links_.push_back(h.link);
  }
  std::sort(last_links_.begin(), last_links_.end());
  last_links_.erase(std::unique(last_links_.begin(), last_links_.end()),
                    last_links_.end());

  time_undo_.clear();
  apply_structure_delta(t);
  const bool acyclic = repair_order();
  count_nodes();
  if (!acyclic) {
    cyclic_ = true;  // nothing written; undo_migration or adopt_schedule
    return false;
  }
  sweep();
  ++stats_.migrations;
  if (makespan != nullptr) *makespan = task_makespan();
  return true;
}

void RetimeContext::undo_migration(TaskId t) {
  BSA_REQUIRE(last_task_ == t, "undo_migration(" << t
                                                 << ") does not match the "
                                                    "last delta (task "
                                                 << last_task_ << ")");
  // The schedule was restored bit-exactly by the caller; mirror that
  // here. Times first, then the structure around t (which re-adopts t's
  // times and its rebuilt hop chains from the restored schedule).
  for (const TimeUndo& u : time_undo_) {
    start_[static_cast<std::size_t>(u.node)] = u.start;
    finish_[static_cast<std::size_t>(u.node)] = u.finish;
  }
  time_undo_.clear();
  apply_structure_delta(t);
  // The restored graph is the pre-migration one, which was acyclic.
  const bool acyclic = repair_order();
  BSA_ASSERT(acyclic, "restored schedule orders are cyclic");
  cyclic_ = false;
  ++stats_.undos;
  count_nodes();
  last_task_ = kInvalidTask;
  last_links_.clear();
}

// --- testing aid -------------------------------------------------------------

std::string RetimeContext::check_consistency() const {
  std::ostringstream os;
  if (cyclic_) return "context holds cyclic orders";
  // task times + activity
  for (TaskId t = 0; t < num_tasks_; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (static_cast<bool>(task_active_[ti]) != s_->is_placed(t)) {
      os << "task " << t << " active mismatch"; return os.str();
    }
    if (!s_->is_placed(t)) continue;
    if (start_[ti] != s_->start_of(t) || finish_[ti] != s_->finish_of(t)) {
      os << "task " << t << " times (" << start_[ti] << "," << finish_[ti]
         << ") vs sched (" << s_->start_of(t) << "," << s_->finish_of(t) << ")";
      return os.str();
    }
  }
  // proc chains
  for (ProcId p = 0; p < s_->topology().num_processors(); ++p) {
    const auto& order = s_->tasks_on(p);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto ui = static_cast<std::size_t>(order[i]);
      const int expect_prev = i == 0 ? kNone : order[i - 1];
      const int expect_next = i + 1 < order.size() ? order[i + 1] : kNone;
      if (proc_prev_[ui] != expect_prev) {
        os << "proc " << p << " task " << order[i] << " prev " << proc_prev_[ui]
           << " != " << expect_prev; return os.str();
      }
      if (proc_next_[ui] != expect_next) {
        os << "proc " << p << " task " << order[i] << " next " << proc_next_[ui]
           << " != " << expect_next; return os.str();
      }
    }
  }
  // hop nodes + times
  for (EdgeId e = 0; e < g_->num_edges(); ++e) {
    const auto& route = s_->route_of(e);
    const auto& nodes = hop_nodes_[static_cast<std::size_t>(e)];
    if (nodes.size() != route.size()) {
      os << "edge " << e << " hop count " << nodes.size() << " vs "
         << route.size(); return os.str();
    }
    for (std::size_t k = 0; k < route.size(); ++k) {
      const auto vi = static_cast<std::size_t>(nodes[k]);
      if (node_edge_[vi] != e || node_k_[vi] != static_cast<int>(k) ||
          node_link_[vi] != route[k].link) {
        os << "edge " << e << " hop " << k << " payload mismatch"; return os.str();
      }
      if (start_[vi] != route[k].start || finish_[vi] != route[k].finish) {
        os << "edge " << e << " hop " << k << " times (" << start_[vi] << ","
           << finish_[vi] << ") vs (" << route[k].start << "," << route[k].finish
           << ")"; return os.str();
      }
    }
  }
  // link chains + booking positions
  for (LinkId l = 0; l < s_->topology().num_links(); ++l) {
    const auto& bookings = s_->bookings_on(l);
    int prev = kNone;
    for (std::size_t i = 0; i < bookings.size(); ++i) {
      const int v = hop_nodes_[static_cast<std::size_t>(bookings[i].edge)]
                              [static_cast<std::size_t>(bookings[i].hop_index)];
      const auto vi = static_cast<std::size_t>(v);
      const int expect_next =
          i + 1 < bookings.size()
              ? hop_nodes_[static_cast<std::size_t>(bookings[i + 1].edge)]
                          [static_cast<std::size_t>(bookings[i + 1].hop_index)]
              : kNone;
      if (link_prev_[vi] != prev) {
        os << "link " << l << " booking " << i << " (edge " << bookings[i].edge
           << " hop " << bookings[i].hop_index << ") prev " << link_prev_[vi]
           << " != " << prev; return os.str();
      }
      if (link_next_[vi] != expect_next) {
        os << "link " << l << " booking " << i << " (edge " << bookings[i].edge
           << " hop " << bookings[i].hop_index << ") next " << link_next_[vi]
           << " != " << expect_next; return os.str();
      }
      if (link_pos_[vi] != static_cast<int>(i)) {
        os << "link " << l << " booking " << i << " position " << link_pos_[vi];
        return os.str();
      }
      prev = v;
    }
  }
  // order: every live node owns a slot and every edge points forward
  for (int v = 0; v < static_cast<int>(start_.size()); ++v) {
    if (!is_live(v)) continue;
    const int s = node_slot_[static_cast<std::size_t>(v)];
    if (s == kNone || slot_node_[static_cast<std::size_t>(s)] != v) {
      os << "node " << v << " has no slot"; return os.str();
    }
    std::string bad;
    for_each_succ(v, [&](int w) {
      if (bad.empty() && !(label(v) < label(w))) {
        bad = "edge " + std::to_string(v) + " -> " + std::to_string(w) +
              " points backwards in the order";
      }
    });
    if (!bad.empty()) return bad;
  }
  return {};
}

}  // namespace bsa::sched
