#include "sched/schedule_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/check.hpp"
#include "common/table.hpp"

namespace bsa::sched {

char* format_time(char* first, char* last, Time t) {
  // printf's %.6g (to_chars' general format at precision 6, and what
  // `os << t` writes) where it reads back to `t`, so exact text keeps its
  // bytes; else the shortest form that reads back.
  char* const end =
      std::to_chars(first, last, t, std::chars_format::general, 6).ptr;
  Time back = 0;
  if (std::from_chars(first, end, back).ptr == end && back == t) return end;
  return std::to_chars(first, last, t).ptr;
}

namespace {

// Appends one "<directive> <id> <where> <start> <finish>" line.
void append_line(std::string& out, std::string_view directive, std::int32_t id,
                 std::int32_t where, Time start, Time finish) {
  // Longest line: a 4-letter directive, two 11-character ids and two
  // 24-character times ("-2.2250738585072014e-308"), with 4 spaces and a
  // newline.
  char buf[96];
  char* const last = buf + sizeof buf;
  char* p = std::copy(directive.begin(), directive.end(), buf);
  *p++ = ' ';
  p = std::to_chars(p, last, id).ptr;
  *p++ = ' ';
  p = std::to_chars(p, last, where).ptr;
  *p++ = ' ';
  p = format_time(p, last, start);
  *p++ = ' ';
  p = format_time(p, last, finish);
  *p++ = '\n';
  out.append(buf, p);
}

}  // namespace

void write_schedule_text(std::ostream& os, const Schedule& s) {
  os << schedule_to_text(s);
}

std::string schedule_to_text(const Schedule& s) {
  const auto& g = s.task_graph();
  std::size_t hops = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) hops += s.route_of(e).size();
  std::string out = "# schedule: " + std::to_string(s.num_placed()) +
                    " tasks, " + std::to_string(hops) + " hops\n";
  // Typical lines take ~25 bytes; reserve 32 each.
  out.reserve(out.size() +
              32 * (static_cast<std::size_t>(s.num_placed()) + hops));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_placed(t)) continue;
    append_line(out, "task", t, s.proc_of(t), s.start_of(t), s.finish_of(t));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const Hop& h : s.route_of(e)) {
      append_line(out, "hop", e, h.link, h.start, h.finish);
    }
  }
  return out;
}

Schedule read_schedule_text(std::istream& is, const graph::TaskGraph& g,
                            const net::Topology& topo) {
  Schedule s(g, topo);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;
    if (directive[0] == '#') continue;
    if (directive == "task") {
      TaskId t = kInvalidTask;
      ProcId p = kInvalidProc;
      Time start = 0;
      Time finish = 0;
      BSA_REQUIRE(static_cast<bool>(ls >> t >> p >> start >> finish),
                  "line " << line_no
                          << ": task needs <id> <proc> <start> <finish>");
      s.place_task(t, p, start, finish);
    } else if (directive == "hop") {
      EdgeId e = kInvalidEdge;
      LinkId l = kInvalidLink;
      Time start = 0;
      Time finish = 0;
      BSA_REQUIRE(static_cast<bool>(ls >> e >> l >> start >> finish),
                  "line " << line_no
                          << ": hop needs <edge> <link> <start> <finish>");
      s.append_hop(e, Hop{l, start, finish});
    } else {
      BSA_REQUIRE(false, "line " << line_no << ": unknown directive '"
                                 << directive << "'");
    }
  }
  return s;
}

Schedule schedule_from_text(const std::string& text,
                            const graph::TaskGraph& g,
                            const net::Topology& topo) {
  std::istringstream is(text);
  return read_schedule_text(is, g, topo);
}

void write_schedule_csv(std::ostream& os, const Schedule& s) {
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  os << "kind,who,where,start,finish\n";
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_placed(t)) continue;
    os << "task," << csv_escape(g.task_name(t)) << ",P"
       << (s.proc_of(t) + 1) << ',' << s.start_of(t) << ',' << s.finish_of(t)
       << '\n';
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::string who = g.task_name(g.edge_src(e)) + "->" +
                            g.task_name(g.edge_dst(e));
    for (const Hop& h : s.route_of(e)) {
      const auto [a, b] = topo.link_endpoints(h.link);
      os << "hop," << csv_escape(who) << ",L" << (a + 1) << (b + 1) << ','
         << h.start << ',' << h.finish << '\n';
    }
  }
}

void write_schedule_dot(std::ostream& os, const Schedule& s,
                        const std::string& name) {
  const auto& g = s.task_graph();
  // A small qualitative palette, cycled over processors.
  static const char* kPalette[] = {"#8dd3c7", "#ffffb3", "#bebada", "#fb8072",
                                   "#80b1d3", "#fdb462", "#b3de69", "#fccde5"};
  constexpr int kPaletteSize = 8;
  os << "digraph \"" << name << "\" {\n  node [style=filled];\n";
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    os << "  n" << t << " [label=\"" << g.task_name(t);
    if (s.is_placed(t)) {
      os << "\\nP" << (s.proc_of(t) + 1) << " [" << s.start_of(t) << ','
         << s.finish_of(t) << ")\" fillcolor=\""
         << kPalette[s.proc_of(t) % kPaletteSize] << "\"];\n";
    } else {
      os << "\\n(unplaced)\" fillcolor=\"#dddddd\"];\n";
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    os << "  n" << g.edge_src(e) << " -> n" << g.edge_dst(e);
    const auto& route = s.route_of(e);
    if (!route.empty()) {
      os << " [label=\"" << route.size() << " hop"
         << (route.size() > 1 ? "s" : "") << "\"]";
    }
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace bsa::sched
