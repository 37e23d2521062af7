#include "sched/validate.hpp"

#include <sstream>

#include "common/check.hpp"

namespace bsa::sched {

std::string ValidationReport::to_string() const {
  if (issues.empty()) return "valid";
  std::ostringstream os;
  for (std::size_t i = 0; i < issues.size(); ++i) {
    if (i > 0) os << '\n';
    os << issues[i];
  }
  return os.str();
}

ValidationReport validate(const Schedule& s,
                          const net::HeterogeneousCostModel& costs) {
  ValidationReport report;
  auto issue = [&report](const std::string& text) {
    report.issues.push_back(text);
  };
  const auto& g = s.task_graph();
  const auto& topo = s.topology();

  // 1. Placement completeness and duration correctness.
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_placed(t)) {
      issue("task " + std::to_string(t) + " not placed");
      continue;
    }
    const ProcId p = s.proc_of(t);
    const Time cost = costs.exec_cost(t, p);
    if (s.start_of(t) + cost != s.finish_of(t)) {
      std::ostringstream os;
      os << "task " << t << " duration: finish " << s.finish_of(t)
         << " != start " << s.start_of(t) << " + actual cost " << cost
         << " on P" << p;
      issue(os.str());
    }
    if (s.start_of(t) < 0) {
      issue("task " + std::to_string(t) + " starts before time 0");
    }
  }

  // 2. Processor exclusivity and order/time agreement.
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    const auto& order = s.tasks_on(p);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      const TaskId a = order[i];
      const TaskId b = order[i + 1];
      if (s.start_of(b) < s.finish_of(a)) {
        std::ostringstream os;
        os << "tasks " << a << " and " << b << " overlap on P" << p << " (["
           << s.start_of(a) << "," << s.finish_of(a) << ") vs ["
           << s.start_of(b) << "," << s.finish_of(b) << "))";
        issue(os.str());
      }
    }
  }

  // 3 + 4. Precedence and routes.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const TaskId src = g.edge_src(e);
    const TaskId dst = g.edge_dst(e);
    if (!s.is_placed(src) || !s.is_placed(dst)) continue;  // reported above
    const auto& route = s.route_of(e);
    const ProcId ps = s.proc_of(src);
    const ProcId pd = s.proc_of(dst);
    if (ps == pd) {
      if (!route.empty()) {
        issue("message " + std::to_string(e) +
              " routed although endpoints are co-located");
      }
      if (s.start_of(dst) < s.finish_of(src)) {
        std::ostringstream os;
        os << "precedence violated: task " << dst << " starts "
           << s.start_of(dst) << " before predecessor " << src << " finishes "
           << s.finish_of(src);
        issue(os.str());
      }
      continue;
    }
    if (route.empty()) {
      std::ostringstream os;
      os << "message " << e << " (" << src << "->" << dst
         << ") crosses processors P" << ps << "->P" << pd
         << " but has no route";
      issue(os.str());
      continue;
    }
    // Route contiguity (a walk from ps to pd).
    ProcId cur = ps;
    bool walk_ok = true;
    for (const Hop& h : route) {
      const auto [a, b] = topo.link_endpoints(h.link);
      if (cur == a) {
        cur = b;
      } else if (cur == b) {
        cur = a;
      } else {
        std::ostringstream os;
        os << "message " << e << " route broken: link " << h.link
           << " not incident to P" << cur;
        issue(os.str());
        walk_ok = false;
        break;
      }
    }
    if (walk_ok && cur != pd) {
      std::ostringstream os;
      os << "message " << e << " route ends at P" << cur << " instead of P"
         << pd;
      issue(os.str());
    }
    // Hop timing.
    Time prev_finish = s.finish_of(src);
    for (std::size_t i = 0; i < route.size(); ++i) {
      const Hop& h = route[i];
      if (h.start < prev_finish) {
        std::ostringstream os;
        os << "message " << e << " hop " << i << " starts " << h.start
           << " before its data is available at " << prev_finish;
        issue(os.str());
      }
      const Time cost = costs.comm_cost(e, h.link);
      if (h.start + cost != h.finish) {
        std::ostringstream os;
        os << "message " << e << " hop " << i << " duration: finish "
           << h.finish << " != start " << h.start << " + actual comm cost "
           << cost << " on link " << h.link;
        issue(os.str());
      }
      prev_finish = h.finish;
    }
    if (s.start_of(dst) < prev_finish) {
      std::ostringstream os;
      os << "task " << dst << " starts " << s.start_of(dst)
         << " before message " << e << " arrives at " << prev_finish;
      issue(os.str());
    }
  }

  // 5 + 6. Link exclusivity and booking/route agreement.
  std::size_t booked_hops = 0;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const auto& bookings = s.bookings_on(l);
    booked_hops += bookings.size();
    for (std::size_t i = 0; i + 1 < bookings.size(); ++i) {
      if (bookings[i + 1].start < bookings[i].finish) {
        std::ostringstream os;
        os << "link " << l << " contention: message " << bookings[i].edge
           << " hop " << bookings[i].hop_index << " overlaps message "
           << bookings[i + 1].edge << " hop " << bookings[i + 1].hop_index;
        issue(os.str());
      }
    }
    for (const LinkBooking& b : bookings) {
      const auto& route = s.route_of(b.edge);
      if (b.hop_index < 0 ||
          static_cast<std::size_t>(b.hop_index) >= route.size()) {
        issue("booking refers to missing hop of message " +
              std::to_string(b.edge));
        continue;
      }
      const Hop& h = route[static_cast<std::size_t>(b.hop_index)];
      if (h.link != l || h.start != b.start || h.finish != b.finish) {
        issue("booking disagrees with route of message " +
              std::to_string(b.edge));
      }
    }
  }
  std::size_t route_hops = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) route_hops += s.route_of(e).size();
  if (route_hops != booked_hops) {
    std::ostringstream os;
    os << "route hop count " << route_hops << " != link booking count "
       << booked_hops;
    issue(os.str());
  }

  return report;
}

}  // namespace bsa::sched
