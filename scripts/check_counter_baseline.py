#!/usr/bin/env python3
"""Counter-exact regression gate for the repository benchmark.

Usage, from the root of a checkout:

    python3 scripts/check_counter_baseline.py [BASELINE]

BASELINE defaults to scripts/perfbench_counters.seed1.txt: one
"<workload> <counter> <value>" line per deterministic counter, '#' lines
are comments. For every workload named there it runs

    python3 perfbench/run.py --workload <workload> --seed 1 --seconds 1 --trace 1

and compares the run's "counter <name> <value>" report lines with the
baseline. Any drift fails: a changed value, a counter the baseline does not
list, or a listed counter the run no longer reports. The counters are
deterministic work counts, so a change that keeps the program's behaviour
keeps every one of them; a change that alters the work on purpose updates
the baseline in the same commit (on drift the script prints the run's
counters in the baseline's format).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(ROOT, "scripts", "perfbench_counters.seed1.txt")
SEED = "1"


def load_baseline(path: str) -> dict:
    """{workload: {counter: value}} in file order."""
    baseline = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                sys.exit(f"{path}:{number}: expected '<workload> <counter> <value>'")
            workload, name, value = fields
            baseline.setdefault(workload, {})[name] = int(value)
    if not baseline:
        sys.exit(f"{path}: no counters")
    return baseline


def run_counters(workload: str) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    counters = {}
    for line in proc.stdout.splitlines():
        if line.startswith("counter "):
            _, name, value = line.split()
            counters[name] = int(value)
    return counters


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_BASELINE
    baseline = load_baseline(path)
    drifted = False
    for workload, expected in baseline.items():
        got = run_counters(workload)
        diff = sorted(name for name in set(expected) | set(got)
                      if expected.get(name) != got.get(name))
        if not diff:
            print(f"{workload}: {len(expected)} counters match the baseline")
            continue
        drifted = True
        print(f"{workload}: {len(diff)} counter(s) drifted from the baseline:")
        for name in diff:
            print(f"  {name}: baseline {expected.get(name, 'absent')}, "
                  f"run {got.get(name, 'absent')}")
        print(f"{workload}: the run's counters, in the baseline's format:")
        for name in sorted(got):
            print(f"{workload} {name} {got[name]}")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
