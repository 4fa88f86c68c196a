package bench

import (
	"testing"
	"time"
)

// TestStalledRunIsAnError runs the cell where full CREST stops
// committing — YCSB θ 0.99, half writes, 16 records a transaction, 240
// coordinators, quick tables with one backup, 18 ms measured — and gets
// an error naming the first measured millisecond with attempts and no
// commit, not a table of near-zeros. Seed 2 commits once in its 18
// measured milliseconds, late enough that a guard over the window's
// second half alone lets the run through.
// The error text is the same at one and four workers (the cell is
// sequential, so the worker count must not reach it). The same cell
// under +Cell commits.
func TestStalledRunIsAnError(t *testing.T) {
	p := Quick()
	cell := func(system SystemKind, seed int64) RunSpec {
		spec := p.Spec(system, YCSBSpec(0.99, 0.5, 16), 240)
		spec.Duration, spec.Warmup, spec.Seed = 20*time.Millisecond, 2*time.Millisecond, seed
		return spec
	}
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "bench: stalled: 919 attempts, 0 commits in [4ms, 5ms)"},
		{2, "bench: stalled: 937 attempts, 0 commits in [2ms, 3ms)"},
	} {
		for _, workers := range []int{1, 4} {
			if _, _, err := Execute(cell(CREST, c.seed), p, Config{Workers: workers}); err == nil || err.Error() != c.want {
				t.Errorf("crest seed %d at %d workers: error %v, want %q", c.seed, workers, err, c.want)
			}
		}
	}
	rec, _, err := Execute(cell(CRESTCell, 1), p, Config{})
	if err != nil || rec.Committed == 0 {
		t.Fatalf("crest-cell: %v, %+v; want a run that commits", err, rec)
	}
}
