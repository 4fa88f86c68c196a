#!/usr/bin/env bash
# The size census CHANGES.md and ROADMAP.md quote: non-test Go lines per
# layer and in total, total test lines, exported declarations per
# internal/ package, markdown bytes per file with the
# live-docs and results/ totals, how many flags each CLI surface has,
# and the public surface rows of testdata/surface.digest. Counted one
# way, here, so two PRs' numbers can be compared. Lines are `wc -l` of
# every .go file that is not a _test.go (of every _test.go for the test
# total); benchmarks/ is its own module and is left out of the Go
# counts. Run from the repository root.
set -euo pipefail

lines() { if [ $# -gt 0 ]; then cat "$@" | wc -l; else echo 0; fi; }
bytes() { if [ $# -gt 0 ]; then cat "$@" | wc -c; else echo 0; fi; }
layer() { # name, directories searched recursively
  local name=$1; shift
  mapfile -t files < <(find "$@" -name '*.go' ! -name '*_test.go' | sort)
  printf '%-28s %7d\n' "$name" "$(lines "${files[@]}")"
}

echo "non-test Go lines"
mapfile -t root < <(ls ./*.go | grep -v _test)
printf '%-28s %7d\n' "root (package crest)" "$(lines "${root[@]}")"
for d in internal/*/; do layer "${d%/}" "$d"; done
layer "cmd/" cmd
layer "examples/" examples
# The totals acceptance criteria are written against, by the same
# commands: the harness, the layers one observer context spans, and all.
printf '%-28s %7d\n' "harness (root+bench+cmd)" \
  "$(ls ./*.go internal/bench/*.go cmd/*/*.go | grep -v _test | xargs cat | wc -l)"
layer "sim+trace+causality+flight+engine+rdma" internal/sim internal/trace \
  internal/causality internal/flight internal/engine internal/rdma
layer "engine+core+bench" internal/engine internal/core internal/bench
printf '%-28s %7d\n' "total" \
  "$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' -print0 | xargs -0 cat | wc -l)"

echo
echo "test Go lines"
printf '%-28s %7d\n' "total" \
  "$(find . -name '*_test.go' ! -path './benchmarks/*' -print0 | xargs -0 cat | wc -l)"

# Exported declarations per internal/ package: lines of `go doc -all`
# that declare a function, method, type, constant or variable (a
# grouped const or var block counts once), so two PRs' internal
# surfaces compare by one rule.
echo
echo "exported declarations (go doc -all)"
total=0
for pkg in $(go list ./internal/...); do
  n=$(go doc -all "$pkg" | grep -cE '^func |^type |^    func |^const |^var ' || true)
  total=$((total + n))
  printf '%-28s %7d\n' "${pkg#crest/}" "$n"
done
printf '%-28s %7d\n' "total" "$total"

echo
echo "markdown bytes"
mapfile -t docs < <(find . -name '*.md' ! -path './.git/*' | sort)
for f in "${docs[@]}"; do printf '%-28s %7d\n' "${f#./}" "$(wc -c < "$f")"; done
printf '%-28s %7d\n' "total" "$(cat "${docs[@]}" | wc -c)"
# Live docs are what a reader keeps current: every markdown file but the
# per-PR measurement records (results/) and the benchmark's own module
# (benchmarks/). Both budgets are the ROADMAP's docs item; ci.yml's
# `docs budget` step enforces ROADMAP.md's, and caps the live docs at
# 290 000 bytes on the way to theirs.
mapfile -t live < <(printf '%s\n' "${docs[@]}" | grep -v -e '^\./results/' -e '^\./benchmarks/')
mapfile -t results < <(printf '%s\n' "${docs[@]}" | grep '^\./results/' || true)
printf '%-28s %7d  (budget 200000)\n' "live docs" "$(bytes "${live[@]}")"
printf '%-28s %7d  (budget 25000)\n' "ROADMAP.md" "$(bytes ROADMAP.md)"
printf '%-28s %7d\n' "results/" "$(bytes "${results[@]}")"

echo
echo "flags (lines of -h that declare one)"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin" ./cmd/crestbench ./cmd/cresttrace
flags() { ("$@" -h 2>&1 || true) | grep -c '^  -'; }
printf '%-28s %7d\n' "crestbench" "$(flags "$bin/crestbench")"
total=0
for sub in why graph windows tail critpath; do
  n=$(flags "$bin/cresttrace" "$sub")
  total=$((total + n))
  printf '%-28s %7d\n' "cresttrace $sub" "$n"
done
printf '%-28s %7d\n' "cresttrace (all subcommands)" "$total"

# The public API's size as TestSurfaceDigests pins it: settable fields
# of each configuration struct, and package crest's exported
# package-level identifiers (exports).
echo
echo "public surface (testdata/surface.digest)"
while read -r name value; do printf '%-28s %7d\n' "$name" "$value"; done < testdata/surface.digest
