/// Reproduces the paper's worked example (§2.2-2.4, Figure 1, Table 1,
/// Figure 2): the 9-task graph on the 4-processor heterogeneous ring.
///
/// Prints paper-vs-measured for every analytic quantity — the nominal
/// critical path and serial order, the per-processor CP lengths
/// (240/226/235/260), the selected pivot (P2), the serial order under
/// P2's actual costs — followed by BSA's migration trace, the final
/// Gantt chart in the style of Figure 2, and the BSA/DLS comparison.
///
/// Figure 1's exact edge weights are not recoverable from the published
/// scan; DESIGN.md §4 documents the reconstruction used here, which
/// matches all of the paper's recoverable numbers. The final schedule
/// length therefore need not equal the paper's 138 exactly.

#include <iostream>

#include "baselines/dls.hpp"
#include "common/table.hpp"
#include "core/bsa.hpp"
#include "core/serialization.hpp"
#include "sched/gantt.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "../tests/paper_fixture.hpp"

int main() {
  using namespace bsa;
  namespace pf = bsa::testing;

  const auto g = pf::paper_task_graph();
  const auto topo = pf::paper_ring();
  const auto cm = pf::paper_cost_model(g, topo);

  std::cout << "=== Paper worked example (Figure 1 + Table 1 + Figure 2) "
               "===\n\n";

  // Nominal serialization.
  Rng rng(0);
  const auto nominal = core::serialize(g, rng);
  std::cout << "nominal critical path (paper: T1 T7 T9):        ";
  for (const TaskId t : nominal.critical_path) {
    std::cout << g.task_name(t) << ' ';
  }
  std::cout << "\nnominal serial order (paper: T1 T2 T7 T4 T3 T8 T6 T9 T5): ";
  for (const TaskId t : nominal.order) std::cout << g.task_name(t) << ' ';
  std::cout << "\n\n";

  // BSA run with full trace.
  const auto result = core::schedule_bsa(g, topo, cm);

  TextTable cps({"processor", "CP length (measured)", "CP length (paper)"});
  const char* paper_cp[] = {"240", "226", "235", "260"};
  for (ProcId p = 0; p < 4; ++p) {
    cps.new_row()
        .cell("P" + std::to_string(p + 1))
        .cell(result.trace.pivot_cp_lengths[static_cast<std::size_t>(p)], 0)
        .cell(paper_cp[p]);
  }
  cps.print(std::cout);
  std::cout << "first pivot: P" << (result.trace.first_pivot + 1)
            << " (paper: P2)\n\n";

  std::cout << "serial order on pivot (paper prints T1 T2 T6 T7 T3 T4 T8 T9 "
               "T5; see DESIGN.md on the T6/T7 tie): ";
  for (const TaskId t : result.trace.serialization.order) {
    std::cout << g.task_name(t) << ' ';
  }
  std::cout << "\ninitial serial schedule length: "
            << result.trace.initial_serial_length << "\n\n";

  std::cout << "migrations (paper narrative: T3,T4,T7(,T8,T9) leave the "
               "pivot in phase 1; T3 moves on in phase 2):\n";
  for (const auto& m : result.trace.migrations) {
    std::cout << "  phase " << m.phase << ": " << g.task_name(m.task) << " P"
              << (m.from + 1) << " -> P" << (m.to + 1) << ", finish "
              << m.old_finish << " -> " << m.new_finish
              << (m.via_vip_rule ? " (VIP rule)" : "")
              << ", schedule length " << m.makespan_after << '\n';
  }

  std::cout << "\nfinal BSA schedule (paper's Figure 2(b) reports 138 with "
               "its unrecoverable edge weights):\n";
  sched::print_listing(std::cout, result.schedule);
  std::cout << '\n';
  sched::print_gantt(std::cout, result.schedule, 96);

  const auto report = sched::validate(result.schedule, cm);
  std::cout << "\nvalidation: " << report.to_string() << '\n';

  const auto dls = baselines::schedule_dls(g, topo, cm);
  std::cout << "BSA schedule length: " << result.schedule_length()
            << "  |  DLS schedule length: " << dls.schedule.makespan()
            << "  |  lower bound: "
            << sched::schedule_length_lower_bound(g, cm) << '\n';
  return 0;
}
