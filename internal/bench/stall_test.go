package bench

import (
	"testing"
	"time"
)

// TestStalledRunIsAnError runs the cell where full CREST stops
// committing — YCSB θ 0.99, half writes, 16 records a transaction, 240
// coordinators, quick tables with one backup, 18 ms measured, seed 1 —
// and gets an error, not a table of zeros: the second half of its
// measured window has thousands of attempts and no commit. The error
// text is the same at one and four workers (the cell is sequential, so
// the worker count must not reach it). The same cell under +Cell
// commits.
func TestStalledRunIsAnError(t *testing.T) {
	p := Quick()
	cell := func(system SystemKind) RunSpec {
		spec := p.Spec(system, YCSBSpec(0.99, 0.5, 16), 240)
		spec.Duration, spec.Warmup, spec.Seed = 20*time.Millisecond, 2*time.Millisecond, 1
		return spec
	}
	const want = "bench: stalled: 8118 attempts, 0 commits in [11ms, 20ms)"
	for _, workers := range []int{1, 4} {
		if _, _, err := Execute(cell(CREST), p, Config{Workers: workers}); err == nil || err.Error() != want {
			t.Errorf("crest at %d workers: error %v, want %q", workers, err, want)
		}
	}
	rec, _, err := Execute(cell(CRESTCell), p, Config{})
	if err != nil || rec.Committed == 0 {
		t.Fatalf("crest-cell: %v, %+v; want a run that commits", err, rec)
	}
}
