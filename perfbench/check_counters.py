#!/usr/bin/env python3
"""The benchmark's own test.

Usage, from the root of a checkout:

    python3 perfbench/check_counters.py [workload ...]   (default: all three)

For each workload it runs the benchmark twice with the same seed, once with
--trace 0 and once with --trace 1, and checks that:
  * both runs pass their correctness gate (exit code 0, "correct": true);
  * every deterministic counter ("counter <name> <value>" report lines)
    repeats exactly — later count-based claims rest on these.
run.py itself rejects a metric name BENCHMARK.json does not declare. When
all three workloads are checked, every declared per-layer metric must also
be driven by at least one of them (run.py names the others on its
"undriven" line). Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "1"


def run(workload: str, trace: str):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{workload}: correctness gate failed: {result}")
    counters = {}
    undriven = set()
    for line in lines:
        if line.startswith("counter "):
            _, name, value = line.split()
            counters[name] = int(value)
        elif line.startswith("undriven "):
            undriven = set(line.split()[1:])
    return counters, undriven


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    everything = [w["name"] for w in bench["workloads"]]
    workloads = sys.argv[1:] or everything
    undriven_everywhere = {m["name"] for m in bench["per_layer"]}
    for workload in workloads:
        c1, _ = run(workload, "0")
        c2, undriven = run(workload, "1")
        undriven_everywhere &= undriven
        if not c1:
            sys.exit(f"{workload}: no counters reported")
        if c1 != c2:
            diff = {k: (c1.get(k), c2.get(k)) for k in set(c1) | set(c2) if c1.get(k) != c2.get(k)}
            sys.exit(f"{workload}: counters differ between runs: {diff}")
        print(f"{workload}: {len(c1)} counters repeat exactly")
    if set(workloads) == set(everything) and undriven_everywhere:
        sys.exit(f"per-layer metrics no workload drives: {sorted(undriven_everywhere)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
