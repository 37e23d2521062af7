#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bsa-random --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (a Release build of the library and the
benchmark binary) in .bench_build/ on first use, then runs the binary with
the same arguments. Build output goes to stderr. The binary's report lines
are passed through to stdout; its last line, the metric values by name, is
turned into the result line with the units BENCHMARK.json declares:

    {"correct": true, "attempted": 960, "failed": 0,
     "metrics": {"setup_s": {"value": 0.083, "unit": "s"}, ...}}

With --trace 0 the binary must give exactly the declared end-to-end
metrics. With --trace 1 it gives the per-layer metrics of the layers the
workload drives; a declared per-layer metric it does not give reads 0 (the
layer is not driven) and is named on an "undriven" report line. A name
BENCHMARK.json does not declare, or a missing end-to-end metric, is an
error. The exit code is the binary's, or non-zero without a result when
the build or the run fails.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(root: str) -> str:
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def declared_units(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def attach_units(values: dict, units: dict, trace: bool):
    """Metric values by name -> ({name: {"value", "unit"}}, undriven names)."""
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    missing = [name for name in units if name not in values]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not reported: {missing}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    return metrics, missing


def main() -> int:
    root = os.getcwd()
    args = sys.argv[1:]
    trace = any(flag == "--trace" and value == "1" for flag, value in zip(args, args[1:]))
    try:
        units = declared_units(root, trace)
        binary = build(root)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    cmd = [binary, *sys.argv[1:], "--scratch", os.path.join(BUILD_DIR, "perfbench")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        result["metrics"], undriven = attach_units(result["metrics"], units, trace)
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        print(f"perfbench: no valid result line: {exc}", file=sys.stderr)
        return proc.returncode or 5
    if undriven:
        print("undriven " + " ".join(undriven))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
