package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crest/internal/engine"
	"crest/internal/sim"
)

func TestLatenciesPercentiles(t *testing.T) {
	var l Latencies
	for i := 1; i <= 100; i++ {
		l.Add(sim.Duration(i) * sim.Microsecond)
	}
	if got := l.Avg(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("avg = %v", got)
	}
	if got := l.P50(); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := l.P99(); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := l.P999(); got != 100 {
		t.Fatalf("p999 = %v", got)
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
}

func TestPercentileClampsOutOfContract(t *testing.T) {
	var l Latencies
	for i := 1; i <= 10; i++ {
		l.Add(sim.Duration(i) * sim.Microsecond)
	}
	cases := []struct {
		name string
		p    float64
		want float64
	}{
		{"zero clamps to min", 0, 1},
		{"negative clamps to min", -5, 1},
		{"neg infinity clamps to min", math.Inf(-1), 1},
		{"NaN clamps to min", math.NaN(), 1},
		{"above 100 clamps to max", 150, 10},
		{"pos infinity clamps to max", math.Inf(1), 10},
		{"in-contract low edge", 1, 1},
		{"in-contract high edge", 100, 10},
		{"median unchanged", 50, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := l.Percentile(tc.p); got != tc.want {
				t.Fatalf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
	// The empty aggregate stays zero for any p.
	var empty Latencies
	for _, p := range []float64{-1, 0, 50, 200, math.NaN()} {
		if got := empty.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v", p, got)
		}
	}
}

func TestLatenciesEmpty(t *testing.T) {
	var l Latencies
	if l.Avg() != 0 || l.P99() != 0 {
		t.Fatal("empty latencies not zero")
	}
}

func TestQuickPercentileMonotonic(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var l Latencies
		for _, v := range raw {
			l.Add(sim.Duration(v) * sim.Microsecond)
		}
		prev := 0.0
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 99.9} {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAccounting(t *testing.T) {
	r := NewRun()
	r.RecordAttempt(engine.Attempt{Committed: false, Reason: engine.AbortLockFail, FalseConflict: true,
		Exec: 10 * sim.Microsecond})
	r.RecordAttempt(engine.Attempt{Committed: true,
		Exec: 20 * sim.Microsecond, Validate: 5 * sim.Microsecond, Commit: 5 * sim.Microsecond})
	r.RecordCommit(40 * sim.Microsecond)
	r.Elapsed = 1 * sim.Millisecond

	if r.Committed != 1 || r.Aborted != 1 {
		t.Fatalf("counts %d/%d", r.Committed, r.Aborted)
	}
	if got := r.AbortRate(); got != 0.5 {
		t.Fatalf("abort rate %v", got)
	}
	if got := r.FalseAbortRate(); got != 1 {
		t.Fatalf("false abort rate %v", got)
	}
	// 1 committed txn in 1 ms = 1 KOPS.
	if got := r.ThroughputKOPS(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("throughput %v", got)
	}
	// Aborted attempt's exec time folds into the committed txn's
	// execution phase: (10+20)/1 = 30µs.
	if got := r.Phases.AvgExec(); got != 30 {
		t.Fatalf("avg exec %v", got)
	}
	if r.ByReason[engine.AbortLockFail] != 1 {
		t.Fatal("reason not counted")
	}
	if r.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunMerge(t *testing.T) {
	a, b := NewRun(), NewRun()
	a.RecordCommit(10 * sim.Microsecond)
	b.RecordCommit(20 * sim.Microsecond)
	b.RecordAttempt(engine.Attempt{Reason: engine.AbortValidation})
	a.Merge(b)
	if a.Committed != 2 || a.Aborted != 1 {
		t.Fatalf("merge %d/%d", a.Committed, a.Aborted)
	}
	if a.Lat.Count() != 2 {
		t.Fatal("latencies not merged")
	}
	if a.ByReason[engine.AbortValidation] != 1 {
		t.Fatal("reasons not merged")
	}
}

// The mean must not depend on whether a percentile was asked first:
// Percentile sorts the samples in place, and a mean summed in slice
// order would then round differently.
func TestAvgIndependentOfPercentileOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int) *Latencies {
		l := &Latencies{}
		for i := 0; i < n; i++ {
			l.Add(sim.Duration(rng.Int63n(int64(800 * sim.Microsecond))))
		}
		return l
	}
	check := func(name string, l *Latencies) {
		before := l.Avg()
		l.P999()
		if after := l.Avg(); math.Float64bits(after) != math.Float64bits(before) {
			t.Errorf("%s: avg %v before P999, %v after", name, before, after)
		}
	}
	check("sequential", fill(50000))

	a, b := fill(30000), fill(20000)
	b.P50() // one side already sorted when it is folded in
	var merged Latencies
	merged.Merge(a)
	merged.Merge(b)
	check("merged", &merged)

	// A merge is the same additions in the same order as one
	// accumulator fed every sample.
	var one Latencies
	for _, l := range []*Latencies{a, b} {
		for _, us := range l.samples {
			one.add(us)
		}
	}
	if math.Float64bits(one.Avg()) != math.Float64bits(merged.Avg()) {
		t.Errorf("merged avg %v, single accumulator %v", merged.Avg(), one.Avg())
	}
}
