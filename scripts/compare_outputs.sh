#!/usr/bin/env bash
# Compare what two builds of this repository schedule, byte for byte.
#
#   scripts/compare_outputs.sh PARENT_BUILD BUILD [OUT_DIR]
#
# Both arguments are CMake build directories holding bsa_tool and the
# fig3-6 benches (e.g. a build of the parent commit and one of the
# change). For every spec of the specs-scheduler block of docs/SPECS.md,
# plus bsa:route=static,slots=append and bsa:route=ecube (hypercube
# only), over random/gauss/fft/stencil x ring/hypercube/mesh x seeds 1-3
# and over three 60-task graphs where every third task and every third
# edge costs zero (x the same topologies), and for one DLS run whose
# times pass 1e6 (exponent notation in the text format), it runs
# `bsa_tool --export --decision-log --counters` with both builds; then it
# runs the four figure benches with --eft with both.
#
# Exits 1 on any difference in a schedule (the --export file and the
# printed listing, where a failed check's message counts but not its
# expression or source location), a decision log or a figure table. Differences in
# counter lines are listed separately and do not fail the run: a change
# that renames or adds a counter explains them in CHANGES.md. Outputs
# are kept under OUT_DIR/{parent,change}/ when it is given.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 PARENT_BUILD BUILD [OUT_DIR]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
if [[ $# -eq 3 ]]; then
  work=$3
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi

mapfile -t specs < <(sed -n '/^```specs-scheduler$/,/^```$/p' \
  "$root/docs/SPECS.md" | sed '1d;$d')
specs+=("bsa:route=static,slots=append")
if [[ ${#specs[@]} -lt 2 ]]; then
  echo "no specs-scheduler block found in docs/SPECS.md" >&2
  exit 2
fi

# Counter lines of `bsa_tool --counters`: each run's `counters (<spec>):`
# header (printed only when the run has a counter) and its `  name = value`
# lines.
counter_re='^(counters \(.*\):$|  [a-z][a-z0-9_.]* = )'

# run SIDE NAME ARGS...: one bsa_tool run; splits stdout into the
# counter lines and everything else (the schedule listing and metrics).
run() {
  local side=$1 name=$2 bin
  shift 2
  bin=$parent
  [[ $side == change ]] && bin=$change
  local out="$work/$side/$name"
  rm -f "$out.sched" "$out.log"
  "$bin/bsa_tool" "$@" --export "$out.sched" --decision-log "$out.log" \
    --counters > "$out.stdout" 2>&1 || echo "exit $?" >> "$out.stdout"
  # A run that fails writes no schedule; its listing holds the error.
  touch "$out.sched" "$out.log"
  grep -E "$counter_re" "$out.stdout" > "$out.counters" || true
  # A failed check's expression and source location differ between
  # checkouts; its kind and message are compared.
  grep -vE "$counter_re" "$out.stdout" |
    sed -E 's/^error: (invariant violated|precondition failed):.* — /error: \1 — /' \
      > "$out.listing" || true
}

mkdir -p "$work/parent" "$work/change"
runs=0
schedule_diffs=()
counter_diffs=()
compare() {
  local name=$1 kind
  runs=$((runs + 1))
  for kind in sched log listing; do
    if ! cmp -s "$work/parent/$name.$kind" "$work/change/$name.$kind"; then
      schedule_diffs+=("$name ($kind)")
    fi
  done
  if ! cmp -s "$work/parent/$name.counters" "$work/change/$name.counters"; then
    counter_diffs+=("$name")
  fi
}

for workload in random gauss fft stencil; do
  for topology in ring hypercube mesh; do
    for seed in 1 2 3; do
      cases=("${specs[@]}")
      [[ $topology == hypercube ]] && cases+=("bsa:route=ecube")
      for spec in "${cases[@]}"; do
        name="${workload}_${topology}_${seed}_${spec//[:,=]/_}"
        for side in parent change; do
          run "$side" "$name" --workload "$workload" --size 60 \
            --topology "$topology" --seed "$seed" --algo "$spec"
        done
        compare "$name"
      done
    done
  done
done

# zero_cost_graph SEED: a 60-task DAG in bsa_tool's text format with
# fractional costs (one decimal, so sums round) where every third task
# and every third edge costs zero; a fixed LCG makes it the same on
# every host.
zero_cost_graph() {
  awk -v seed="$1" 'BEGIN {
    x = seed
    for (i = 0; i < 60; i++) {
      x = (x * 1103515245 + 12345) % 2147483648
      printf "task %s\n", (i % 3 == 1) ? 0 : (x % 97 + 1) / 10
    }
    n = 0
    for (j = 1; j < 60; j++) {
      x = (x * 1103515245 + 12345) % 2147483648
      k = 1 + x % 3
      delete used
      for (m = 0; m < k; m++) {
        x = (x * 1103515245 + 12345) % 2147483648
        i = x % j
        if (i in used) continue
        used[i] = 1
        x = (x * 1103515245 + 12345) % 2147483648
        printf "edge %d %d %s\n", i, j, (n++ % 3 == 0) ? 0 : (x % 61 + 1) / 10
      }
    }
  }'
}

for seed in 1 2 3; do
  graph="$work/zero_cost_$seed.tg"
  zero_cost_graph "$seed" > "$graph"
  for topology in ring hypercube mesh; do
    cases=("${specs[@]}")
    [[ $topology == hypercube ]] && cases+=("bsa:route=ecube")
    for spec in "${cases[@]}"; do
      name="zero_cost_${topology}_${seed}_${spec//[:,=]/_}"
      for side in parent change; do
        run "$side" "$name" "$graph" --topology "$topology" --seed "$seed" \
          --het 4 --link-het 2 --algo "$spec"
      done
      compare "$name"
    done
  done
done

# Times past 1e6, where the text format switches to exponent notation
# ("1.09602e+06"): DLS on a communication-bound 500-task graph (~1 s).
name=exponent_times_ring_1_dls
for side in parent change; do
  run "$side" "$name" --workload random --size 500 --gran 0.01 --het 50 \
    --link-het 4 --topology ring --procs 16 --seed 1 --algo dls
done
compare "$name"

table_diffs=()
for bench in bench_fig3_regular_size bench_fig4_random_size \
    bench_fig5_regular_granularity bench_fig6_random_granularity; do
  for side in parent change; do
    bin=$parent
    [[ $side == change ]] && bin=$change
    "$bin/$bench" --eft --threads 2 |
      sed 's/on [0-9]* thread(s)/on N thread(s)/' > "$work/$side/$bench.txt"
  done
  if ! cmp -s "$work/parent/$bench.txt" "$work/change/$bench.txt"; then
    table_diffs+=("$bench")
  fi
done

echo "compared $runs bsa_tool runs and 4 figure tables"
status=0
if [[ ${#counter_diffs[@]} -gt 0 ]]; then
  echo "counter lines differ in ${#counter_diffs[@]} run(s); distinct changes:"
  for name in "${counter_diffs[@]}"; do
    diff "$work/parent/$name.counters" "$work/change/$name.counters" |
      grep -E '^[<>]' | sed -E 's/ = -?[0-9]+$//' || true
  done | sort | uniq -c
fi
if [[ ${#schedule_diffs[@]} -gt 0 ]]; then
  echo "FAIL: ${#schedule_diffs[@]} schedule/decision-log difference(s):"
  printf '  %s\n' "${schedule_diffs[@]}"
  status=1
fi
if [[ ${#table_diffs[@]} -gt 0 ]]; then
  echo "FAIL: figure tables differ: ${table_diffs[*]}"
  status=1
fi
[[ $status -eq 0 ]] && echo "OK: schedules, decision logs and figure tables identical"
exit $status
