#!/usr/bin/env bash
# The worker-count determinism table: one sharded run per cell of
# {observer set} x {-workers}, on a -race build. Every cell's stdout
# must equal the unobserved sequential run's (observers never perturb
# the schedule; the worker count never enters it), and every export
# must byte-match its -workers 1 sibling (per-partition recorder shards
# and the deterministic merge, DESIGN.md §12, may not leak worker
# interleaving), and the all-observer cell's exports at GOMAXPROCS 1. Run from the repository root; leaves everything under
# the directory named by $1 (default: determinism/).
set -euo pipefail

out=${1:-determinism}
mkdir -p "$out"
go build -race -o "$out/crestbench_race" ./cmd/crestbench

run=(-run -quick -system crest -workload smallbank -theta 0.99
  -shards 4 -placement modulo -coords 240 -duration 5ms -warmup 1ms)
workers=(1 4 8)
declare -A observers=(
  [none]=""
  [trace-metrics-why]="trace metrics why"
  [flight]="flight"
  [all]="trace metrics why flight"
)
ext() { if [ "$1" = metrics ]; then echo csv; else echo json; fi; }

for set in none trace-metrics-why flight all; do
  for w in "${workers[@]}"; do
    flags=(-workers "$w" -runtime-stats "$out/$set.runtime.$w.json")
    for o in ${observers[$set]}; do
      flags+=("-$o" "$out/$set.$o.$w.$(ext "$o")")
    done
    echo "== observers: $set, workers: $w =="
    "$out/crestbench_race" "${run[@]}" "${flags[@]}" > "$out/$set.stdout.$w.txt" 2> "$out/$set.stderr.$w.txt"
    diff -u "$out/none.stdout.1.txt" "$out/$set.stdout.$w.txt"
    for o in ${observers[$set]}; do
      cmp "$out/$set.$o.1.$(ext "$o")" "$out/$set.$o.$w.$(ext "$o")"
    done
  done
done

# The exporters encode long arrays on two goroutines when two
# processors run them (trace.JSONWriter.Elements): the all-observer
# cell's exports at GOMAXPROCS 1 must be the same bytes.
flags=(-workers 1)
for o in ${observers[all]}; do
  flags+=("-$o" "$out/all.$o.gomaxprocs1.$(ext "$o")")
done
echo "== observers: all, workers: 1, GOMAXPROCS 1 =="
GOMAXPROCS=1 "$out/crestbench_race" "${run[@]}" "${flags[@]}" > "$out/all.stdout.gomaxprocs1.txt" 2> "$out/all.stderr.gomaxprocs1.txt"
diff -u "$out/none.stdout.1.txt" "$out/all.stdout.gomaxprocs1.txt"
for o in ${observers[all]}; do
  cmp "$out/all.$o.1.$(ext "$o")" "$out/all.$o.gomaxprocs1.$(ext "$o")"
done

# The window timeline (schedule-derived runtime introspection) is
# worker-invariant too.
for w in "${workers[@]}"; do
  go run ./cmd/cresttrace windows -in "$out/all.runtime.$w.json" > "$out/timeline.$w.txt"
  diff -u "$out/timeline.1.txt" "$out/timeline.$w.txt"
done
echo "determinism table: ${#observers[@]} observer sets x ${#workers[@]} worker counts, and GOMAXPROCS 1, byte-identical"
