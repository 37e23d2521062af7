#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <ios>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/bsa.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"

/// \file bsa_oracle.hpp
/// Shared helpers for the BSA engine-equivalence tests
/// (retime_context_test, schedule_txn_test):
///
///  * diff_schedules — bit-exact schedule comparison, including the parts
///    schedule_to_text omits (processor and link orders);
///  * schedule_digest — a 64-bit fingerprint of the same state, so a
///    scenario's result can be pinned as a literal;
///  * expect_bsa_oracle_run — run BSA with its per-migration oracle on
///    (BsaOptions::validate_each_step: re-timing checked against the full
///    rebuild sched::try_retime, rollbacks against the pre-migration
///    schedule), require the run byte-identical to one with the oracle
///    off, and compare it with a pinned digest / migration / rejection
///    triple. The pins were taken from the build that still carried the
///    full-rebuild, snapshot-rollback and per-call-allocating reference
///    engines as BSA options, where all engine combinations agreed.

namespace bsa::testing {

/// Bit-exact schedule comparison: placements, per-processor orders,
/// routes (hop links and times) and link-booking orders. Returns a
/// description of the first difference, empty when identical.
inline std::string diff_schedules(const sched::Schedule& a,
                                  const sched::Schedule& b) {
  std::ostringstream os;
  const auto& g = a.task_graph();
  const auto& topo = a.topology();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (a.is_placed(t) != b.is_placed(t)) {
      os << "task " << t << " placement presence differs";
      return os.str();
    }
    if (!a.is_placed(t)) continue;
    if (a.proc_of(t) != b.proc_of(t) || a.start_of(t) != b.start_of(t) ||
        a.finish_of(t) != b.finish_of(t)) {
      os << "task " << t << ": (" << a.proc_of(t) << "," << a.start_of(t)
         << "," << a.finish_of(t) << ") vs (" << b.proc_of(t) << ","
         << b.start_of(t) << "," << b.finish_of(t) << ")";
      return os.str();
    }
  }
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    if (a.tasks_on(p) != b.tasks_on(p)) {
      os << "processor " << p << " order differs";
      return os.str();
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ra = a.route_of(e);
    const auto& rb = b.route_of(e);
    if (ra.size() != rb.size()) {
      os << "edge " << e << " route length " << ra.size() << " vs "
         << rb.size();
      return os.str();
    }
    for (std::size_t k = 0; k < ra.size(); ++k) {
      if (ra[k].link != rb[k].link || ra[k].start != rb[k].start ||
          ra[k].finish != rb[k].finish) {
        os << "edge " << e << " hop " << k << " differs";
        return os.str();
      }
    }
  }
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const auto& ba = a.bookings_on(l);
    const auto& bb = b.bookings_on(l);
    if (ba.size() != bb.size()) {
      os << "link " << l << " booking count differs";
      return os.str();
    }
    for (std::size_t i = 0; i < ba.size(); ++i) {
      if (ba[i].edge != bb[i].edge || ba[i].hop_index != bb[i].hop_index ||
          ba[i].start != bb[i].start || ba[i].finish != bb[i].finish) {
        os << "link " << l << " booking " << i << " differs";
        return os.str();
      }
    }
  }
  return {};
}

/// FNV-1a over everything diff_schedules compares (times by bit pattern).
inline std::uint64_t schedule_digest(const sched::Schedule& s) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const auto mix_int = [&mix](std::int64_t v) {
    mix(static_cast<std::uint64_t>(v));
  };
  const auto mix_time = [&mix](Time v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };
  const auto& g = s.task_graph();
  const auto& topo = s.topology();
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    mix_int(s.is_placed(t) ? s.proc_of(t) : -1);
    if (!s.is_placed(t)) continue;
    mix_time(s.start_of(t));
    mix_time(s.finish_of(t));
  }
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    mix_int(static_cast<std::int64_t>(s.tasks_on(p).size()));
    for (const TaskId t : s.tasks_on(p)) mix_int(t);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mix_int(static_cast<std::int64_t>(s.route_of(e).size()));
    for (const sched::Hop& h : s.route_of(e)) {
      mix_int(h.link);
      mix_time(h.start);
      mix_time(h.finish);
    }
  }
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    mix_int(static_cast<std::int64_t>(s.bookings_on(l).size()));
    for (const sched::LinkBooking& b : s.bookings_on(l)) {
      mix_int(b.edge);
      mix_int(b.hop_index);
      mix_time(b.start);
      mix_time(b.finish);
    }
  }
  return hash;
}

/// A scenario's pinned result.
struct OraclePin {
  std::uint64_t digest = 0;
  std::size_t migrations = 0;
  std::int64_t rejections = 0;
};

/// Run BSA with the oracle on and off, require identical schedules and a
/// valid result, and compare with `pins[index]`. A missing pin fails and
/// prints the row to add. Returns the run's rejected-migration count.
inline std::int64_t expect_bsa_oracle_run(
    const graph::TaskGraph& g, const net::Topology& topo,
    const net::HeterogeneousCostModel& cm, core::BsaOptions opt,
    const std::string& label, const std::vector<OraclePin>& pins,
    std::size_t index) {
  opt.validate_each_step = true;
  std::optional<core::BsaResult> checked;
  try {
    checked.emplace(core::schedule_bsa(g, topo, cm, opt));
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": oracle failed: " << e.what();
    return 0;
  }
  opt.validate_each_step = false;
  const core::BsaResult plain = core::schedule_bsa(g, topo, cm, opt);
  const std::string diff = diff_schedules(checked->schedule, plain.schedule);
  EXPECT_TRUE(diff.empty()) << label << ": oracle changed the run: " << diff;
  EXPECT_TRUE(sched::validate(plain.schedule, cm).ok()) << label;

  const OraclePin actual{schedule_digest(plain.schedule),
                         plain.trace.migrations.size(),
                         plain.trace.rejected_migrations};
  if (index >= pins.size()) {
    ADD_FAILURE() << label << ": unpinned case " << index << ", pin: {0x"
                  << std::hex << actual.digest << std::dec << "ull, "
                  << actual.migrations << ", " << actual.rejections << "},";
    return actual.rejections;
  }
  const OraclePin& pin = pins[index];
  EXPECT_EQ(actual.digest, pin.digest) << label;
  EXPECT_EQ(actual.migrations, pin.migrations) << label;
  EXPECT_EQ(actual.rejections, pin.rejections) << label;
  return actual.rejections;
}

}  // namespace bsa::testing
