package bench

import (
	"fmt"
	"os"
	"testing"

	"crest/internal/pin"
)

// TestPaperPredicates evaluates the paper's qualitative claims over the
// committed quick-profile run records, without simulating, and pins
// each verdict — holds, fails or unevaluated — next to the KOPS or
// CREST/FORD ratios it was decided on, in testdata/predicates.digest.
// A failing predicate is pinned as failing, not tuned until it holds;
// when BENCH_quick.json is re-pinned, this file's diff names the
// verdicts and numbers that moved.
func TestPaperPredicates(t *testing.T) {
	f, err := os.Open("../../BENCH_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := DecodeResultSet(f)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string]*RunRecord{}
	for _, rec := range set.Runs {
		recs[rec.Key] = rec
	}
	p := Quick()
	kops := func(system SystemKind, wl WorkloadSpec, coords int) float64 {
		spec := p.Spec(system, wl, coords)
		rec, ok := recs[spec.Key()]
		if !ok {
			t.Fatalf("BENCH_quick.json has no run %s", spec.Key())
		}
		return rec.KOPS
	}
	verdict := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "fails"
	}
	got := map[string]string{}

	// CREST ≥ FORD and Motor per workload from 72 coordinators up
	// (Fig 11); numbers are CREST/FORD/Motor KOPS.
	for _, wl := range workloadsUnderTest(p) {
		ok, nums := true, ""
		for _, coords := range []int{72, 120} {
			crest, ford, motor := kops(CREST, wl.wl, coords), kops(FORD, wl.wl, coords), kops(Motor, wl.wl, coords)
			ok = ok && crest >= ford && crest >= motor
			nums += fmt.Sprintf(" c%d:%.1f/%.1f/%.1f", coords, crest, ford, motor)
		}
		got["crest-beats-baselines/"+wl.name] = verdict(ok) + nums
	}

	// The CREST/FORD ratio never falls as θ rises (Fig 16).
	for _, wl := range []struct {
		name string
		spec func(theta float64) WorkloadSpec
	}{
		{"smallbank", SmallBankSpec},
		{"ycsb", func(theta float64) WorkloadSpec { return YCSBSpec(theta, 0.5, 4) }},
	} {
		ok, prev, nums := true, 0.0, ""
		for _, theta := range []float64{0.1, 0.5, 0.9, 0.99, 1.11} {
			ratio := kops(CREST, wl.spec(theta), p.MaxCoords) / kops(FORD, wl.spec(theta), p.MaxCoords)
			ok = ok && ratio >= prev
			prev = ratio
			nums += fmt.Sprintf(" θ%.2f:%.2f", theta, ratio)
		}
		got["gap-widens-with-skew/"+wl.name] = verdict(ok) + nums
	}

	// Cell-level concurrency control adds nothing on SmallBank, whose
	// records are one cell each (Fig 15); numbers are Base/+Cell KOPS.
	ok, nums := true, ""
	for _, theta := range []float64{0.99, 0.1} {
		base, cell := kops(CRESTBase, SmallBankSpec(theta), p.MaxCoords), kops(CRESTCell, SmallBankSpec(theta), p.MaxCoords)
		ok = ok && base == cell
		nums += fmt.Sprintf(" θ%.2f:%.1f/%.1f", theta, base, cell)
	}
	got["cell-equals-base/smallbank"] = verdict(ok) + nums

	// Motor wins read-only YCSB (Fig 18 at 0 % writes); numbers are
	// Motor/CREST/FORD KOPS.
	ok, nums = true, ""
	for _, theta := range []float64{0.99, 0.1} {
		wl := YCSBSpec(theta, 0, 4)
		motor, crest, ford := kops(Motor, wl, p.MaxCoords), kops(CREST, wl, p.MaxCoords), kops(FORD, wl, p.MaxCoords)
		ok = ok && motor > crest && motor > ford
		nums += fmt.Sprintf(" θ%.2f:%.1f/%.1f/%.1f", theta, motor, crest, ford)
	}
	got["motor-wins-read-only/ycsb"] = verdict(ok) + nums

	// The TPC-C CREST/FORD ratio at 240 coordinators lies in [2.4, 3.1];
	// the quick profile has no 240-coordinator run.
	got["tpcc-ratio-at-240"] = fmt.Sprintf("unevaluated quick profile stops at %d coordinators", p.MaxCoords)

	for name, v := range got {
		t.Logf("%s %s", name, v)
	}
	pin.Rows(t, "testdata/predicates.digest", got)
}
