#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/spec.hpp"
#include "graph/graph_io.hpp"
#include "runtime/scenario.hpp"
#include "runtime/sweep_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/scheduler.hpp"
#include "spec_declarations.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/regular.hpp"
#include "workloads/workload_registry.hpp"

namespace bsa::workloads {
namespace {

/// what() of the PreconditionError thrown by `fn`, or "" when it throws
/// nothing (callers assert on substrings of the message).
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

const WorkloadRegistry& reg() { return WorkloadRegistry::global(); }

graph::TaskGraph gen(const std::string& spec, int target = 60,
                     double gran = 1.0, std::uint64_t seed = 3) {
  return reg().resolve(spec)->generate(target, gran, seed);
}

// --- names and grammar -------------------------------------------------------

TEST(WorkloadRegistry, ListsAtLeastEightBuiltinsInRegistrationOrder) {
  const std::vector<std::string> names = reg().names();
  ASSERT_GE(names.size(), 8u);  // PR acceptance: >= 8 registered workloads
  const std::vector<std::string> expected{
      "cholesky", "fft",      "forkjoin", "gauss", "laplace", "lu",
      "mva",      "pipeline", "random",   "sp",    "stencil"};
  EXPECT_EQ(names, expected);
}

TEST(WorkloadRegistry, SharesTheSpecGrammarWithSchedulers) {
  // Same parser as scheduler specs, workload-flavoured messages.
  EXPECT_THROW((void)bsa::parse_spec("", "workload"), PreconditionError);
  EXPECT_THROW((void)bsa::parse_spec("fft:", "workload"), PreconditionError);
  EXPECT_THROW((void)bsa::parse_spec("fft:points", "workload"),
               PreconditionError);
  EXPECT_THROW((void)bsa::parse_spec("fft:points=8,points=16", "workload"),
               PreconditionError);
  const std::string msg = error_message(
      [] { (void)bsa::parse_spec(":points=8", "workload"); });
  EXPECT_NE(msg.find("workload spec"), std::string::npos) << msg;

  const ParsedSpec p =
      bsa::parse_spec("  FFT : Points = 64 , CCR = 0.5 ", "workload");
  EXPECT_EQ(p.name, "fft");
  ASSERT_EQ(p.options.size(), 2u);
  EXPECT_EQ(p.options[0].first, "points");
  EXPECT_EQ(p.options[0].second, "64");
}

// --- canonicalisation --------------------------------------------------------

TEST(WorkloadRegistry, CanonicalLowercasesSortsAndDropsNoOpOptions) {
  EXPECT_EQ(reg().canonical("FFT"), "fft");
  EXPECT_EQ(reg().canonical("Random"), "random");
  // Non-default options sort by key with canonical value spellings.
  EXPECT_EQ(reg().canonical("fft:points=64,ccr=0.50"),
            "fft:ccr=0.5,points=64");
  EXPECT_EQ(reg().canonical("stencil:iters=2,rows=8,cols=8"),
            "stencil:cols=8,iters=2,rows=8");
  // Pinning a constant-default structure option is a no-op and
  // canonicalises away (scaled options like points/depth never do).
  EXPECT_EQ(reg().canonical("mva:stations=8"), "mva");
  EXPECT_EQ(reg().canonical("forkjoin:width=4"), "forkjoin");
  EXPECT_EQ(reg().canonical("pipeline:width=4,stages=10"),
            "pipeline:stages=10");
  EXPECT_EQ(reg().canonical("stencil:iters=4"), "stencil");
  EXPECT_EQ(reg().canonical("gauss:ccr=2.0"), "gauss:ccr=2");
}

TEST(WorkloadRegistry, EveryDeclaredOptionCanonicalisesAndRejectsByItsType) {
  bsa::testing::expect_declarations_hold(reg());
}

TEST(WorkloadRegistry, CanonicalIsIdempotent) {
  for (const std::string spec :
       {"fft", "fft:points=64,ccr=0.5", "forkjoin:width=8,depth=5",
        "sp:depth=6,seed=3", "stencil:rows=8,cols=8,iters=4",
        "pipeline:stages=10,width=4", "gauss:n=12", "random:n=100",
        "mva:levels=4,stations=6", "cholesky:tiles=5", "lu:tiles=4",
        "laplace:n=9"}) {
    const std::string canonical = reg().canonical(spec);
    EXPECT_EQ(reg().canonical(canonical), canonical) << spec;
  }
}

TEST(WorkloadRegistry, DisplayLabelsUseTheFamilyNameForDefaults) {
  EXPECT_EQ(reg().display_label("fft"), "FFT butterfly");
  EXPECT_EQ(reg().display_label("sp"), "Series-parallel");
  EXPECT_EQ(reg().display_label("fft:points=64"), "fft:points=64");
}

// --- rejection with helpful messages -----------------------------------------

TEST(WorkloadRegistry, UnknownNameListsRegisteredNames) {
  const std::string msg =
      error_message([] { (void)reg().resolve("butterfly"); });
  EXPECT_NE(msg.find("unknown workload 'butterfly'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("cholesky, fft, forkjoin, gauss, laplace, lu, mva, "
                     "pipeline, random, sp, stencil"),
            std::string::npos)
      << msg;
}

TEST(WorkloadRegistry, UnknownOptionListsValidOptions) {
  const std::string msg =
      error_message([] { (void)reg().resolve("fft:pionts=8"); });
  EXPECT_NE(msg.find("unknown option 'pionts'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("points"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ccr"), std::string::npos) << msg;
  EXPECT_NE(msg.find("seed"), std::string::npos) << msg;
}

TEST(WorkloadRegistry, BadValuesAreRejectedWithChoices) {
  // Non-power-of-two FFT sizes fail at resolve time, not generate time.
  const std::string msg =
      error_message([] { (void)reg().resolve("fft:points=63"); });
  EXPECT_NE(msg.find("power of two"), std::string::npos) << msg;
  EXPECT_THROW((void)reg().resolve("fft:points=1"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("sp:depth=0"), PreconditionError);
  // Documented structure bounds fail at resolve time, not mid-sweep.
  EXPECT_THROW((void)reg().resolve("sp:depth=15"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("pipeline:stages=1"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("pipeline:stages=1,width=2"),
               PreconditionError);
  EXPECT_NO_THROW((void)reg().resolve("pipeline:stages=1,width=1"));
  EXPECT_NO_THROW((void)reg().resolve("sp:depth=14"));
  // A single stencil sweep over > 1 cell would be edgeless/disconnected.
  EXPECT_THROW((void)reg().resolve("stencil:iters=1"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("stencil:rows=3,cols=3,iters=1"),
               PreconditionError);
  EXPECT_NO_THROW((void)reg().resolve("stencil:rows=1,cols=1,iters=1"));
  // Unbounded structure options cannot request runaway graphs.
  EXPECT_THROW((void)reg().resolve("sp:branch=33"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("sp:branch=1000000"), PreconditionError);
  EXPECT_NO_THROW((void)reg().resolve("sp:branch=32"));
  // Oversized pinned dimensions fail the 64-bit size guard instead of
  // overflowing int inside the count helpers.
  EXPECT_THROW((void)gen("stencil:rows=100000,cols=100000,iters=2"),
               PreconditionError);
  EXPECT_THROW((void)gen("pipeline:stages=1000000,width=1000"),
               PreconditionError);
  EXPECT_THROW((void)reg().resolve("sp:branch=1"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("stencil:rows=0"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("gauss:n=1"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("random:n=abc"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("fft:ccr=0"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("fft:ccr=-2"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("fft:ccr=nan"), PreconditionError);
  EXPECT_THROW((void)reg().resolve("fft:seed=-1"), PreconditionError);
}

TEST(WorkloadRegistry, GranularityThatOverflowsCommCostsIsRejected) {
  // 1.5 x avg exec / granularity past 2^63 would make the int64 cost
  // conversion undefined: the pinned ccr fails at resolve time...
  const std::string ccr_msg =
      error_message([] { (void)reg().resolve("fft:ccr=1e30"); });
  EXPECT_NE(ccr_msg.find("'ccr'"), std::string::npos) << ccr_msg;
  EXPECT_NO_THROW((void)reg().resolve("fft:ccr=1e15"));
  // ...and the caller's granularity axis at generate time.
  for (const char* spec : {"random", "fft", "gauss"}) {
    const std::string msg =
        error_message([&] { (void)gen(spec, 40, 1e-17, 1); });
    EXPECT_NE(msg.find("granularity"), std::string::npos) << spec << msg;
  }
  EXPECT_THROW((void)gen("random", 40, std::numeric_limits<double>::infinity(),
                         1),
               PreconditionError);
  EXPECT_NO_THROW((void)gen("random", 40, 1e-15, 1));
  // The generator entry point applies the same check.
  workloads::RandomDagParams params;
  params.num_tasks = 20;
  params.granularity = 1e-17;
  EXPECT_THROW((void)workloads::random_layered_dag(params), PreconditionError);
}

TEST(WorkloadRegistry, LocalInstanceRejectsDuplicateAndMalformedEntries) {
  WorkloadRegistry local;
  register_builtin_workloads(local);
  EXPECT_EQ(local.names().size(), 11u);
  WorkloadRegistry::Entry dup;
  dup.name = "fft";
  dup.factory = [](const SpecOptions&) -> std::unique_ptr<Workload> {
    return nullptr;
  };
  EXPECT_THROW(local.add(dup), PreconditionError);
  WorkloadRegistry::Entry bad;
  bad.name = "Not:Canonical";
  bad.factory = dup.factory;
  EXPECT_THROW(local.add(bad), PreconditionError);
}

// --- spec list splitting -----------------------------------------------------

TEST(WorkloadRegistry, SplitSpecListKeepsVariantOptionsAttached) {
  EXPECT_EQ(reg().split_spec_list("fft,sp"),
            (std::vector<std::string>{"fft", "sp"}));
  EXPECT_EQ(reg().split_spec_list("fft:points=8,ccr=2,sp:depth=4,random"),
            (std::vector<std::string>{"fft:points=8,ccr=2", "sp:depth=4",
                                      "random"}));
}

// --- structural invariants ---------------------------------------------------

TEST(WorkloadGenerators, KnownParamsYieldExactNodeAndEdgeCounts) {
  struct Expectation {
    const char* spec;
    int tasks;
    int edges;
  };
  const Expectation table[] = {
      // fft: points*(log2+1) tasks; 2*points edges per stage boundary.
      {"fft:points=8", 32, 48},
      // forkjoin: depth*(width+1) + 1 tasks; 2*width edges per stage.
      {"forkjoin:depth=3,width=4", 16, 24},
      // gauss: n(n+1)/2 - 1 tasks; pivot fan-outs + per-column chains.
      {"gauss:n=6", 20, 29},
      // laplace: n^2 wavefront; 2n(n-1) edges.
      {"laplace:n=4", 16, 24},
      // stencil 3x4, 2 iters: 24 tasks; 12 self + 2*(3*3 + 2*4) = 46.
      {"stencil:rows=3,cols=4,iters=2", 24, 46},
      // pipeline: stages*width tasks; (2*width - 1) edges per boundary.
      {"pipeline:stages=3,width=2", 6, 6},
      // mva 2 levels x 3 stations: 8 tasks; 3 stations->agg per level
      // plus agg->station fan-out between levels.
      {"mva:levels=2,stations=3", 8, 9},
      // lu tiles=3: 9 + 4 + 1 tasks.
      {"lu:tiles=3", 14, 21},
      // cholesky tiles=3: 6 + 3 + 1 tasks.
      {"cholesky:tiles=3", 10, 12},
      // random: exact task count.
      {"random:n=40", 40, -1},
  };
  for (const Expectation& e : table) {
    const graph::TaskGraph g = gen(e.spec);
    EXPECT_EQ(g.num_tasks(), e.tasks) << e.spec;
    if (e.edges >= 0) {
      EXPECT_EQ(g.num_edges(), e.edges) << e.spec;
    }
    EXPECT_TRUE(g.is_weakly_connected()) << e.spec;
  }
  // Predicted counts match the *_task_count helpers the adapters use.
  EXPECT_EQ(fft_task_count(8), 32);
  EXPECT_EQ(fork_join_task_count(3, 4), 16);
  EXPECT_EQ(stencil_2d_task_count(3, 4, 2), 24);
  EXPECT_EQ(pipeline_task_count(3, 2), 6);
  EXPECT_EQ(cholesky_task_count(3), 10);
}

TEST(WorkloadGenerators, TaskIdsAreTopologicallyOrdered) {
  // DAG-ness itself is enforced by TaskGraphBuilder::build; these
  // generators additionally emit ids in topological order (LU/Cholesky
  // interleave steps and are exempt — build() orders them internally).
  for (const std::string spec :
       {"fft:points=8", "forkjoin:depth=3,width=4", "gauss:n=6",
        "laplace:n=4", "stencil:rows=3,cols=4,iters=3",
        "pipeline:stages=4,width=3", "mva:levels=3,stations=4",
        "sp:depth=5", "random:n=50"}) {
    const graph::TaskGraph g = gen(spec);
    for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
      ASSERT_LT(g.edge_src(e), g.edge_dst(e)) << spec << " edge " << e;
    }
  }
}

TEST(WorkloadGenerators, EveryRegisteredDefaultScalesToTheTarget) {
  for (const std::string& name : reg().names()) {
    const graph::TaskGraph g = gen(name, /*target=*/60);
    // Discrete structure parameters cannot hit 60 exactly; sp grows in
    // ~2.5x jumps and is the loosest.
    EXPECT_GE(g.num_tasks(), 20) << name;
    EXPECT_LE(g.num_tasks(), 180) << name;
    EXPECT_TRUE(g.is_weakly_connected()) << name;
    // A pinned structure ignores the target axis entirely.
  }
  EXPECT_EQ(gen("fft:points=8", /*target=*/500).num_tasks(), 32);
  EXPECT_EQ(gen("gauss:n=6", /*target=*/500).num_tasks(), 20);
}

// --- determinism -------------------------------------------------------------

TEST(WorkloadRegistry, RepeatedResolvesYieldBitIdenticalGraphs) {
  for (const std::string& name : reg().names()) {
    const std::string a = graph::to_text(gen(name, 60, 0.5, 11));
    const std::string b = graph::to_text(gen(name, 60, 0.5, 11));
    EXPECT_EQ(a, b) << name;
    // The workload instance itself is reusable and pure.
    const auto w = reg().resolve(name);
    EXPECT_EQ(graph::to_text(w->generate(60, 0.5, 11)), a) << name;
    // Different seeds change the costs (and, for random structures, the
    // shape).
    EXPECT_NE(graph::to_text(w->generate(60, 0.5, 12)), a) << name;
  }
}

TEST(WorkloadRegistry, GenerationIsBitIdenticalAcrossThreadCounts) {
  // One shared Workload instance, hammered concurrently: every thread
  // must see the same bytes (the sweep runtime relies on this).
  const auto w = reg().resolve("sp:depth=5");
  const std::string reference = graph::to_text(w->generate(60, 1.0, 7));
  for (const int threads : {2, 8}) {
    std::vector<std::string> texts(16);
    runtime::ThreadPool pool(threads);
    pool.parallel_for(texts.size(), 1, [&](std::size_t i) {
      texts[i] = graph::to_text(w->generate(60, 1.0, 7));
    });
    for (const std::string& t : texts) EXPECT_EQ(t, reference);
  }
}

TEST(WorkloadRegistry, PinnedCcrAndSeedOverrideTheCallerAxes) {
  // ccr=10 => granularity 0.1 regardless of the caller's axis value.
  const graph::TaskGraph fine = gen("fft:points=16,ccr=10", 60, 1.0, 3);
  EXPECT_LT(fine.granularity(), 0.2);
  const graph::TaskGraph coarse = gen("fft:points=16,ccr=0.1", 60, 1.0, 3);
  EXPECT_GT(coarse.granularity(), 5.0);
  // A pinned seed makes the caller seed irrelevant.
  EXPECT_EQ(graph::to_text(gen("sp:depth=4,seed=5", 60, 1.0, 1)),
            graph::to_text(gen("sp:depth=4,seed=5", 60, 1.0, 99)));
}

// --- pinned instances -------------------------------------------------------

TEST(WorkloadRegistry, PaperSuiteGraphsMatchPinnedDigests) {
  // The fig3-6 byte-identity guarantee: the specs fig_common enumerates
  // must keep handing the sweeps the same graphs. Each digest is FNV-1a
  // over graph::to_text; they were taken from the pre-registry instance
  // factory, which the adapters reproduced bit for bit.
  struct Pin {
    const char* workload;
    int size;
    double gran;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins{
      {"gauss", 50, 0.1, 1, 0xf6cd420daeb5a562ULL},
      {"gauss", 50, 0.1, 2026, 0x112fa473788a49f1ULL},
      {"gauss", 50, 1.0, 1, 0xee445fdc7b6d24b9ULL},
      {"gauss", 50, 1.0, 2026, 0x22088d9be2ed2021ULL},
      {"gauss", 50, 10.0, 1, 0x372be489cd209a18ULL},
      {"gauss", 50, 10.0, 2026, 0x0d60845ef970f2d5ULL},
      {"gauss", 150, 0.1, 1, 0x4e9942c95e62fcdaULL},
      {"gauss", 150, 0.1, 2026, 0xc994483a8e9c89bbULL},
      {"gauss", 150, 1.0, 1, 0xd86b8ddaa19cc25dULL},
      {"gauss", 150, 1.0, 2026, 0xa4cfbb886d9f52afULL},
      {"gauss", 150, 10.0, 1, 0x86c399c18af101d7ULL},
      {"gauss", 150, 10.0, 2026, 0x885c9c6aa1b02f54ULL},
      {"lu", 50, 0.1, 1, 0x754856fc1044d64dULL},
      {"lu", 50, 0.1, 2026, 0x2b292eef2b5477f8ULL},
      {"lu", 50, 1.0, 1, 0x1803b3d762469cafULL},
      {"lu", 50, 1.0, 2026, 0x6125cddc367fa04dULL},
      {"lu", 50, 10.0, 1, 0x8739d690907d292bULL},
      {"lu", 50, 10.0, 2026, 0xaa57b5070afa60e9ULL},
      {"lu", 150, 0.1, 1, 0x803def9a0970fc83ULL},
      {"lu", 150, 0.1, 2026, 0xa3bd4ae737e3cf98ULL},
      {"lu", 150, 1.0, 1, 0x17e2be49fa9030f6ULL},
      {"lu", 150, 1.0, 2026, 0x6029fc49909778bcULL},
      {"lu", 150, 10.0, 1, 0xda50238e5b9ac5caULL},
      {"lu", 150, 10.0, 2026, 0x262185ad72e20a37ULL},
      {"laplace", 50, 0.1, 1, 0x1ac9214e03d9ee97ULL},
      {"laplace", 50, 0.1, 2026, 0xa8a21a69b8a7ce6dULL},
      {"laplace", 50, 1.0, 1, 0xd9549a15a00784ebULL},
      {"laplace", 50, 1.0, 2026, 0x414273e841027c8cULL},
      {"laplace", 50, 10.0, 1, 0x530b761150811298ULL},
      {"laplace", 50, 10.0, 2026, 0xad1e4c6f35692fd5ULL},
      {"laplace", 150, 0.1, 1, 0xc985b04b44e131daULL},
      {"laplace", 150, 0.1, 2026, 0x6639c2a07187755bULL},
      {"laplace", 150, 1.0, 1, 0x5b94ba7905e17860ULL},
      {"laplace", 150, 1.0, 2026, 0x4e7826d1f0cdd194ULL},
      {"laplace", 150, 10.0, 1, 0xf395a26a777c6f4dULL},
      {"laplace", 150, 10.0, 2026, 0xe43b1f7bbe051437ULL},
      {"random", 50, 0.1, 1, 0x73cf3a3a45ea9a71ULL},
      {"random", 50, 0.1, 2026, 0x2b3dbd36ff5923cdULL},
      {"random", 50, 1.0, 1, 0x16f49bed129a77efULL},
      {"random", 50, 1.0, 2026, 0xfd4420b97d8a1e87ULL},
      {"random", 50, 10.0, 1, 0x2478914b3cae7426ULL},
      {"random", 50, 10.0, 2026, 0xbacbf1e6f7bd5f41ULL},
      {"random", 150, 0.1, 1, 0x9524c49d65cb37a4ULL},
      {"random", 150, 0.1, 2026, 0x0f7bf17c4277ab0dULL},
      {"random", 150, 1.0, 1, 0x32a57a9a89b5dcbbULL},
      {"random", 150, 1.0, 2026, 0xb49c132dd09407f8ULL},
      {"random", 150, 10.0, 1, 0xfcf31f25c9c2abdcULL},
      {"random", 150, 10.0, 2026, 0x391ce14fc417cac3ULL},
  };
  ASSERT_EQ(pins.size(), 48u);
  for (const Pin& pin : pins) {
    std::uint64_t digest = 1469598103934665603ULL;
    for (const unsigned char c :
         graph::to_text(gen(pin.workload, pin.size, pin.gran, pin.seed))) {
      digest = (digest ^ c) * 1099511628211ULL;
    }
    EXPECT_EQ(digest, pin.digest) << pin.workload << " size " << pin.size
                                  << " gran " << pin.gran << " seed "
                                  << pin.seed;
  }
}

// --- sweep integration -------------------------------------------------------

TEST(WorkloadRegistry, ScenarioGridEnumeratesWorkloadCrossProducts) {
  runtime::ScenarioGrid grid;
  grid.workloads = {"FFT:points=16", "sp:depth=3", "random"};
  grid.sizes = {20};
  grid.granularities = {1.0};
  grid.topologies = {"ring"};
  grid.algos = {"bsa", "dls"};
  grid.procs = 4;
  grid.seeds_per_cell = 1;
  grid.base_seed = 3;
  const runtime::ScenarioSet set = runtime::ScenarioSet::from_grid(grid);
  ASSERT_EQ(set.size(), 6u);  // 3 workloads x 2 algos
  EXPECT_EQ(set[0].workload, "fft:points=16");  // canonicalised
  EXPECT_EQ(set[2].workload, "sp:depth=3");
  EXPECT_EQ(set[4].workload, "random");
  const auto results = runtime::SweepRunner({.threads = 2}).run(set);
  ASSERT_EQ(results.size(), set.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.valid) << r.spec.workload << " / " << r.spec.algo;
    EXPECT_GT(r.schedule_length, 0) << r.spec.workload;
  }
  EXPECT_EQ(runtime::workload_family(set[0].workload), "fft");
}

TEST(WorkloadRegistry, FromGridRejectsBadWorkloadSpecsUpFront) {
  runtime::ScenarioGrid grid;
  grid.workloads = {"random", "no-such-workload"};
  grid.sizes = {10};
  grid.topologies = {"ring"};
  grid.algos = {"bsa"};
  EXPECT_THROW((void)runtime::ScenarioSet::from_grid(grid),
               PreconditionError);
}

TEST(WorkloadRegistry, ExternalRowsCannotBeEvaluated) {
  runtime::ScenarioSpec spec;
  spec.workload = runtime::kExternalWorkload;
  EXPECT_THROW((void)runtime::evaluate_scenario(spec), PreconditionError);
}

// --- docs/SPECS.md stays in sync ---------------------------------------------

/// Every spec inside the ```specs-workload / ```specs-scheduler fenced
/// blocks of docs/SPECS.md must resolve against its registry (PR
/// acceptance criterion — the reference doc cannot rot).
TEST(SpecsDoc, EveryDocumentedSpecResolves) {
  const std::string path = std::string(BSA_SOURCE_DIR) + "/docs/SPECS.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  enum class Block { kNone, kWorkload, kScheduler };
  Block block = Block::kNone;
  int workload_specs = 0, scheduler_specs = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("```specs-workload", 0) == 0) {
      block = Block::kWorkload;
      continue;
    }
    if (line.rfind("```specs-scheduler", 0) == 0) {
      block = Block::kScheduler;
      continue;
    }
    if (line.rfind("```", 0) == 0) {
      block = Block::kNone;
      continue;
    }
    if (block == Block::kNone || line.empty()) continue;
    if (block == Block::kWorkload) {
      EXPECT_NO_THROW((void)reg().canonical(line)) << "workload: " << line;
      ++workload_specs;
    } else {
      EXPECT_NO_THROW(
          (void)sched::SchedulerRegistry::global().canonical(line))
          << "scheduler: " << line;
      ++scheduler_specs;
    }
  }
  // The doc must actually document specs (guards against renamed fences).
  EXPECT_GE(workload_specs, 11);
  EXPECT_GE(scheduler_specs, 4);
}

/// The backtick-quoted words of a markdown table cell.
std::vector<std::string> quoted_words(const std::string& cell) {
  std::vector<std::string> out;
  for (std::size_t open = cell.find('`'); open != std::string::npos;) {
    const std::size_t close = cell.find('`', open + 1);
    if (close == std::string::npos) break;
    out.push_back(cell.substr(open + 1, close - open - 1));
    open = cell.find('`', close + 1);
  }
  return out;
}

/// The scheduler `### Options` table of docs/SPECS.md lists, for every
/// registered algorithm, exactly the option keys its registry entry
/// accepts — a removed or added option cannot leave a stale row behind.
TEST(SpecsDoc, SchedulerOptionTableMatchesRegistry) {
  const std::string path = std::string(BSA_SOURCE_DIR) + "/docs/SPECS.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  bool in_scheduler_section = false, in_table = false;
  std::map<std::string, std::set<std::string>> documented;
  std::vector<std::string> current;  // algorithms of the row group
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) {
      in_scheduler_section = line == "## Scheduler registry";
      in_table = false;
      continue;
    }
    if (!in_scheduler_section) continue;
    if (line == "### Options") {
      in_table = true;
      continue;
    }
    if (!in_table || line.rfind("| ", 0) != 0) continue;
    // Cells: "", algorithm, option, values, default, meaning.
    std::vector<std::string> cells;
    std::size_t from = 0;
    for (std::size_t bar; (bar = line.find('|', from)) != std::string::npos;
         from = bar + 1) {
      cells.push_back(line.substr(from, bar - from));
    }
    if (cells.size() < 3 || cells[1].find("algorithm") != std::string::npos) {
      continue;
    }
    if (!quoted_words(cells[1]).empty()) current = quoted_words(cells[1]);
    for (const std::string& algo : current) {
      auto& keys = documented[algo];
      for (const std::string& key : quoted_words(cells[2])) keys.insert(key);
    }
  }
  const auto& registry = sched::SchedulerRegistry::global();
  for (const std::string& name : registry.names()) {
    ASSERT_TRUE(documented.count(name) != 0)
        << name << " missing from the SPECS.md option table";
    std::set<std::string> registered;
    for (const auto& doc : registry.find(name)->options) {
      registered.insert(doc.name);
    }
    EXPECT_EQ(documented[name], registered) << name;
  }
  EXPECT_EQ(documented.size(), registry.names().size());
}

}  // namespace
}  // namespace bsa::workloads
