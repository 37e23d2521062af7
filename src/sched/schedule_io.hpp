#pragma once

#include <iosfwd>
#include <string>

#include "sched/schedule.hpp"

/// \file schedule_io.hpp
/// Schedule serialization: a line-oriented text format (round-trippable),
/// a CSV event dump for spreadsheet analysis, and Graphviz DOT export of
/// the mapped graph (tasks coloured by processor).
///
/// Text format:
///
///   # schedule: <n> tasks, <hops> hops
///   task <id> <proc> <start> <finish>
///   hop <edge> <link> <start> <finish>     -- hops listed in route order
///
/// Ids are 0-based and refer to the TaskGraph/Topology the schedule was
/// built against; read_schedule_text rebuilds a Schedule over the same
/// graph and topology. Times print exactly: printf's %.6g where that
/// reads back to the same time, else the shortest form that does (see
/// format_time).

namespace bsa::sched {

/// `s` in the native text format. Partial schedules allowed.
[[nodiscard]] std::string schedule_to_text(const Schedule& s);
/// Write schedule_to_text(s) to `os`.
void write_schedule_text(std::ostream& os, const Schedule& s);

/// Write `t` to [first, last) as the text format prints times, and return
/// the end: the bytes `os << t` writes under default stream flags
/// (printf's %.6g) when they read back to `t`, else the shortest text that
/// does (e.g. 1095999.5 where %.6g writes 1.096e+06). 24 bytes suffice.
char* format_time(char* first, char* last, Time t);

/// Parse the native text format into a schedule over `g` and `topo`.
/// Throws PreconditionError on malformed input or ids out of range.
[[nodiscard]] Schedule read_schedule_text(std::istream& is,
                                          const graph::TaskGraph& g,
                                          const net::Topology& topo);
[[nodiscard]] Schedule schedule_from_text(const std::string& text,
                                          const graph::TaskGraph& g,
                                          const net::Topology& topo);

/// CSV dump with one row per event:
///   kind,who,where,start,finish
/// where kind is "task" (who = task name, where = P<i>) or "hop"
/// (who = src->dst, where = L<a><b>).
void write_schedule_csv(std::ostream& os, const Schedule& s);

/// Graphviz DOT of the task graph with nodes grouped/coloured by the
/// processor the schedule assigned them to.
void write_schedule_dot(std::ostream& os, const Schedule& s,
                        const std::string& name = "schedule");

}  // namespace bsa::sched
