package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"crest/internal/metrics"
	"crest/internal/scenario"
	"crest/internal/sim"
)

func parseSpec(t *testing.T, text string) *scenario.Spec {
	t.Helper()
	s, err := scenario.Parse(strings.NewReader(text), "test")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScenarioSpecMatchesHandCodedRun is the byte-equality contract:
// a spec describing a static workload commits exactly the schedule of
// the equivalent hand-coded configuration — same events, same
// commits, same aborts, same latency distribution.
func TestScenarioSpecMatchesHandCodedRun(t *testing.T) {
	p := matrixProfile()
	spec := parseSpec(t, `
workload=ycsb
readproportion=0.5
updateproportion=0.5
requestdistribution=zipfian
theta=0.99
recordspertxn=4
`)
	gen, err := p.ScenarioWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Workload: p.YCSB(0.99, 0.5, 4), Coordinators: 12,
		Seed: 1, Duration: p.Duration, Warmup: p.Warmup, Replicas: 1}
	viaSpec := base
	viaSpec.Workload = gen
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(viaSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != want.Events {
		t.Fatalf("events %d != %d: the trivial scenario perturbed the schedule", got.Events, want.Events)
	}
	if got.Committed != want.Committed || got.Aborted != want.Aborted || got.FalseAborts != want.FalseAborts {
		t.Fatalf("outcome diverged: spec %d/%d/%d, hand-coded %d/%d/%d",
			got.Committed, got.Aborted, got.FalseAborts, want.Committed, want.Aborted, want.FalseAborts)
	}
	if got.Lat.P50() != want.Lat.P50() || got.Lat.P999() != want.Lat.P999() {
		t.Fatal("latency distribution diverged")
	}
	if got.Verbs != want.Verbs {
		t.Fatalf("verb counts diverged: %+v vs %+v", got.Verbs, want.Verbs)
	}
}

// TestDriftDemoDeterministicAcrossEngines runs the hotspot-drift demo
// twice per engine and demands identical records, phases included.
func TestDriftDemoDeterministicAcrossEngines(t *testing.T) {
	p := matrixProfile()
	demo := scenario.DriftDemo()
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		spec := p.ScenarioSpec(system, demo, p.MaxCoords)
		cfg, err := spec.config(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		if a.Events != b.Events || a.Committed != b.Committed || a.Aborted != b.Aborted {
			t.Fatalf("%s: drift run not reproducible: %d/%d/%d vs %d/%d/%d", system,
				a.Events, a.Committed, a.Aborted, b.Events, b.Committed, b.Aborted)
		}
		if !reflect.DeepEqual(a.ScenarioPhases, b.ScenarioPhases) {
			t.Fatalf("%s: phase stats not reproducible:\n%+v\n%+v", system, a.ScenarioPhases, b.ScenarioPhases)
		}
		if len(a.ScenarioPhases) != len(demo.Timeline) {
			t.Fatalf("%s: %d phase stats for %d phases", system, len(a.ScenarioPhases), len(demo.Timeline))
		}
		for i, ps := range a.ScenarioPhases {
			if ps.Commits == 0 {
				t.Fatalf("%s: phase %d committed nothing: %+v", system, i+1, a.ScenarioPhases)
			}
		}
	}
}

// windowMeans averages a ratio of two counter series over the windows
// inside [from, to).
func windowMeans(s *metrics.Snapshot, num, den *metrics.Series, from, to sim.Time) float64 {
	sumN, sumD := 0.0, 0.0
	for i, t0 := range s.Times {
		if t0 < from || t0 >= to {
			continue
		}
		if i < len(num.Samples) {
			sumN += num.Samples[i]
		}
		if i < len(den.Samples) {
			sumD += den.Samples[i]
		}
	}
	if sumD == 0 {
		return 0
	}
	return sumN / sumD
}

// TestDriftShiftsWindowedAbortRate asserts the demo's headline: the
// windowed abort-rate time-series visibly shifts at each drift phase
// boundary (load collapse into phase 2, bursts plus a fresh hot set
// in phase 3).
func TestDriftShiftsWindowedAbortRate(t *testing.T) {
	p := matrixProfile()
	demo := scenario.DriftDemo()
	gen, err := p.ScenarioWorkload(demo)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
	cfg := Config{Workload: gen, Coordinators: 24, Seed: 1,
		Duration: demo.TimelineDuration(), Warmup: 200 * sim.Microsecond,
		Replicas: 1, Metrics: reg}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	attempts := snap.Find("crest_txn_attempts_total", "")
	commits := snap.Find("crest_txn_commits_total", "")
	if attempts == nil || commits == nil {
		t.Fatal("txn counters missing from snapshot")
	}
	boundary1 := sim.Time(demo.PhaseStart(1))
	boundary2 := sim.Time(demo.PhaseStart(2))
	end := sim.Time(demo.TimelineDuration())
	abort := func(from, to sim.Time) float64 {
		return 1 - windowMeans(snap, commits, attempts, from, to)
	}
	rate := func(from, to sim.Time) float64 {
		sum := 0.0
		for i, t0 := range snap.Times {
			if t0 >= from && t0 < to && i < len(attempts.Samples) {
				sum += attempts.Samples[i]
			}
		}
		return sum / float64((to-from)/sim.Time(100*sim.Microsecond))
	}
	p1, p2, p3 := abort(0, boundary1), abort(boundary1, boundary2), abort(boundary2, end)
	a1, a2, a3 := rate(0, boundary1), rate(boundary1, boundary2), rate(boundary2, end)
	t.Logf("windowed abort rate: phase1=%.3f phase2=%.3f phase3=%.3f", p1, p2, p3)
	t.Logf("attempts per window: phase1=%.1f phase2=%.1f phase3=%.1f", a1, a2, a3)
	// Phase 2 drops to 30% load. Offered traffic falls less than
	// linearly (the few admitted coordinators contend less and cycle
	// faster), but both traffic and the abort rate must visibly drop.
	if a2 >= a1*0.9 {
		t.Fatalf("offered load did not drop at boundary 1: %.1f -> %.1f attempts/window", a1, a2)
	}
	if p2 >= p1-0.05 {
		t.Fatalf("abort rate did not visibly drop with the load trough: %.3f -> %.3f", p1, p2)
	}
	// Phase 3 bursts back to full load half the time: traffic and
	// contention climb again over the trough.
	if a3 <= a2*1.1 {
		t.Fatalf("bursts did not raise offered load at boundary 2: %.1f -> %.1f attempts/window", a2, a3)
	}
	if p3 <= p2+0.05 {
		t.Fatalf("abort rate did not visibly rise with the bursts: %.3f -> %.3f", p2, p3)
	}
}

// TestDriftBoundaryMidWindowCSVStable is the awkward-alignment case:
// a phase boundary landing mid-metrics-window (1.05 ms boundaries
// against 100 µs windows) must still produce byte-identical windowed
// CSV across same-seed runs.
func TestDriftBoundaryMidWindowCSVStable(t *testing.T) {
	p := matrixProfile()
	spec := parseSpec(t, `
workload=ycsb
theta=0.99
phase.1.type=constant
phase.1.duration=1050us
phase.1.load=1.0
phase.2.type=constant
phase.2.duration=1050us
phase.2.load=0.4
phase.2.hotspot=0.5
`)
	csv := func() []byte {
		gen, err := p.ScenarioWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
		cfg := Config{Workload: gen, Coordinators: 12, Seed: 1,
			Duration: spec.TimelineDuration(), Warmup: 200 * sim.Microsecond,
			Replicas: 1, Metrics: reg}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := metrics.WriteCSV(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := csv(), b2(csv)
	if !bytes.Equal(a, b) {
		t.Fatal("windowed CSV diverged across same-seed runs with a mid-window phase boundary")
	}
	if !bytes.Contains(a, []byte("crest_txn_attempts_total")) {
		t.Fatalf("CSV lacks the attempts series:\n%s", a[:min(len(a), 400)])
	}
}

func b2(f func() []byte) []byte { return f() }

// TestScenarioRunSpecKeyDedupes checks the matrix identity: equal
// scenarios share a key (and so memoize), different timelines do not.
func TestScenarioRunSpecKeyDedupes(t *testing.T) {
	p := matrixProfile()
	a := p.ScenarioSpec(CREST, scenario.DriftDemo(), 12)
	b := p.ScenarioSpec(CREST, scenario.DriftDemo(), 12)
	if a.Key() != b.Key() {
		t.Fatalf("equal scenarios, different keys:\n%s\n%s", a.Key(), b.Key())
	}
	other := scenario.DriftDemo()
	other.Timeline[0].Load = 0.9
	c := p.ScenarioSpec(CREST, other, 12)
	if c.Key() == a.Key() {
		t.Fatal("different timelines, same run key")
	}
	plain := p.Spec(CREST, YCSBSpec(0.99, 0.5, 4), 12)
	if plain.Key() == a.Key() {
		t.Fatal("scenario run key collides with a plain run key")
	}
	if !strings.Contains(a.Key(), "|scn:drift-demo@") {
		t.Fatalf("key lacks the scenario segment: %s", a.Key())
	}
}

// TestScenarioExperimentRenders drives the scenario experiment
// standalone at test scale and checks its table shape.
func TestScenarioExperimentRenders(t *testing.T) {
	p := matrixProfile()
	m, err := RunMatrix([]string{"scenario"}, p, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tables := m.Experiments[0].Tables
	if len(tables) != 1 || tables[0].ID != "scenario-drift" {
		t.Fatalf("tables = %+v", tables)
	}
	tab := tables[0]
	// Three phases plus the total row, and per-system commit/abort
	// columns that actually populated.
	if len(tab.Rows) != len(scenario.DriftDemo().Timeline)+1 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("ragged row %v vs header %v", row, tab.Header)
		}
		for _, cell := range row[3:] {
			if cell == "0" {
				t.Fatalf("empty measurement in row %v", row)
			}
		}
	}
}
