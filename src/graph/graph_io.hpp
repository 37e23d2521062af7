#pragma once

#include <iosfwd>
#include <string>

#include "graph/task_graph.hpp"

/// \file graph_io.hpp
/// Text serialization for task graphs.
///
/// The native format is line-oriented:
///
///   # comment
///   task <cost> [name]          -- declares the next task id (0,1,2,...)
///   edge <src> <dst> <cost>     -- 0-based task ids
///
/// plus Graphviz DOT export for visual inspection of graphs.

namespace bsa::graph {

/// Write `g` in the native text format.
void write_text(std::ostream& os, const TaskGraph& g);

/// Parse the native text format. Throws PreconditionError on malformed
/// input (unknown directive, bad ids, cycles, ...).
[[nodiscard]] TaskGraph read_text(std::istream& is);

/// Round-trip helpers on std::string.
[[nodiscard]] std::string to_text(const TaskGraph& g);
[[nodiscard]] TaskGraph from_text(const std::string& text);

/// Graphviz DOT export; node labels show "name (cost)", edge labels show
/// communication costs.
void write_dot(std::ostream& os, const TaskGraph& g,
               const std::string& graph_name = "task_graph");

}  // namespace bsa::graph
