#include "graph/graph_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace bsa::graph {

void write_text(std::ostream& os, const TaskGraph& g) {
  os << "# task graph: " << g.num_tasks() << " tasks, " << g.num_edges()
     << " edges\n";
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    os << "task " << g.task_cost(t) << ' ' << g.task_name(t) << '\n';
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    os << "edge " << g.edge_src(e) << ' ' << g.edge_dst(e) << ' '
       << g.edge_cost(e) << '\n';
  }
}

TaskGraph read_text(std::istream& is) {
  TaskGraphBuilder builder;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank line
    if (directive[0] == '#') continue;
    if (directive == "task") {
      Cost cost = 0;
      BSA_REQUIRE(static_cast<bool>(ls >> cost),
                  "line " << line_no << ": task needs a cost");
      std::string name;
      ls >> name;  // optional
      (void)builder.add_task(cost, name);
    } else if (directive == "edge") {
      TaskId src = kInvalidTask;
      TaskId dst = kInvalidTask;
      Cost cost = 0;
      BSA_REQUIRE(static_cast<bool>(ls >> src >> dst >> cost),
                  "line " << line_no << ": edge needs <src> <dst> <cost>");
      (void)builder.add_edge(src, dst, cost);
    } else {
      BSA_REQUIRE(false, "line " << line_no << ": unknown directive '"
                                 << directive << "'");
    }
  }
  return builder.build();
}

std::string to_text(const TaskGraph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

TaskGraph from_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

void write_dot(std::ostream& os, const TaskGraph& g,
               const std::string& graph_name) {
  os << "digraph \"" << graph_name << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=circle];\n";
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    os << "  n" << t << " [label=\"" << g.task_name(t) << "\\n"
       << g.task_cost(t) << "\"];\n";
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    os << "  n" << g.edge_src(e) << " -> n" << g.edge_dst(e) << " [label=\""
       << g.edge_cost(e) << "\"];\n";
  }
  os << "}\n";
}

}  // namespace bsa::graph
