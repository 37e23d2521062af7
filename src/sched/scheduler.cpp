#include "sched/scheduler.hpp"

#include <atomic>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "sched/validate.hpp"

namespace bsa::sched {

namespace {

#ifdef BSA_AUDIT
constexpr bool kAuditDefault = true;
#else
constexpr bool kAuditDefault = false;
#endif

std::atomic<bool> g_audit{kAuditDefault};

}  // namespace

void set_audit(bool on) noexcept {
  g_audit.store(on, std::memory_order_relaxed);
}

bool audit_enabled() noexcept {
  return g_audit.load(std::memory_order_relaxed);
}

void audit_result(const Schedule& s, const net::HeterogeneousCostModel& costs,
                  const std::string& label) {
  if (!audit_enabled()) return;
  const ValidationReport report = validate(s, costs);
  if (!report.ok()) {
    throw InvariantError("audit: scheduler '" + label +
                         "' produced an invalid schedule:\n" +
                         report.to_string());
  }
}

SchedulerResult Scheduler::run_observed(const graph::TaskGraph& g,
                                        const net::Topology& topo,
                                        const net::HeterogeneousCostModel& costs,
                                        std::uint64_t seed,
                                        const obs::Hooks& hooks) const {
  obs::Span span(hooks.tracer, spec(), "sched", hooks.trace_tid);
  return run(g, topo, costs, seed);
}

}  // namespace bsa::sched
