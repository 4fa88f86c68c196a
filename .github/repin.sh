#!/usr/bin/env bash
# Rewrites every pinned byte in one command: the digest rows
# (testdata/*.digest) and whole-file goldens the tests hold through
# internal/pin, the quick-profile tables (quick_results.txt) and run
# records (BENCH_quick.json) with the paper predicates evaluated over
# them, and the full-profile exp1 and exp6 tables
# (full_exp1.txt, full_exp6.txt). Everything it writes is a pure
# function of the code, so on an unchanged tree `git diff` stays empty.
# A refactor never runs it; a deliberate re-pin runs it once, in a
# commit of its own. It prints the per-run KOPS delta against the
# committed BENCH_quick.json and its own wall time.
#
#   bash .github/repin.sh [DIR]
#
# DIR, if given, keeps the quick matrix's measured JSON (with its host
# `perf` object) and full stdout. Run from the repository root; needs jq.
set -euo pipefail
start=$SECONDS
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=${1:-$tmp}
mkdir -p "$out"

echo "== pins held by the tests (REPIN=1)"
REPIN=1 go test -count=1 -run 'Digests$|^TestDriftDemoMatchesExampleFile$' ./...

go build -o "$tmp/crestbench" ./cmd/crestbench
echo "== crestbench -exp all -quick"
cp BENCH_quick.json "$tmp/baseline.json"
"$tmp/crestbench" -exp all -quick -json "$out/BENCH_quick.json" \
  -baseline "$tmp/baseline.json" > "$out/quick.txt"
sed '/^KOPS vs /,$d' "$out/quick.txt" > quick_results.txt
sed -n '/^KOPS vs /,$p' "$out/quick.txt"
# The committed run records leave out the host-clock figures, which
# differ on every run.
jq 'del(.perf)' "$out/BENCH_quick.json" > BENCH_quick.json
echo "== paper predicates over the new BENCH_quick.json (REPIN=1)"
REPIN=1 go test -count=1 -run '^TestPaperPredicates$' ./internal/bench
for exp in exp1 exp6; do
  echo "== crestbench -exp $exp"
  "$tmp/crestbench" -exp "$exp" > "full_$exp.txt"
done
echo "[repin: $((SECONDS - start)) s wall time]"
