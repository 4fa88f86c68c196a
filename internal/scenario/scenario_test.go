package scenario

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"crest/internal/pin"
	"crest/internal/sim"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/ycsb"
)

func parse(t *testing.T, text string) *Spec {
	t.Helper()
	s, err := Parse(strings.NewReader(text), "test")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestParseGodbBenchCompatibleSpec(t *testing.T) {
	// The workloada.spec shape from godb-bench's README.
	s := parse(t, `
recordcount=1000
operationcount=1000
workload=core

readallfields=true

readproportion=0.5
updateproportion=0.5
scanproportion=0
insertproportion=0

requestdistribution=uniform
`)
	if s.Workload != WLYCSB {
		t.Fatalf("workload=core parsed as %q", s.Workload)
	}
	if s.RecordCount != 1000 || s.ReadProportion != 0.5 || s.UpdateProportion != 0.5 {
		t.Fatalf("core fields wrong: %+v", s)
	}
	if s.Distribution != "uniform" {
		t.Fatalf("distribution %q", s.Distribution)
	}
	if len(s.Timeline) != 0 {
		t.Fatal("spec without phases must have an empty timeline")
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct{ name, text, wantErr string }{
		{"unknown key", "workload=ycsb\nfrobnicate=1\n", "unknown key"},
		{"not key=value", "workload ycsb\n", "key=value"},
		{"bad workload", "workload=oracle\n", "unknown workload"},
		{"no workload", "recordcount=10\n", "workload not set"},
		{"scan", "workload=ycsb\nscanproportion=0.1\n", "scanproportion"},
		{"proportions", "workload=ycsb\nreadproportion=0.9\nupdateproportion=0.9\n", "sum"},
		{"bad distribution", "workload=ycsb\nrequestdistribution=pareto\n", "requestdistribution"},
		{"latest smallbank", "workload=smallbank\nrequestdistribution=latest\n", "latest"},
		{"gap", "workload=ycsb\nphase.1.type=constant\nphase.1.duration=1ms\nphase.1.load=1\nphase.3.type=constant\nphase.3.duration=1ms\n", "contiguous"},
		{"bad kind", "workload=ycsb\nphase.1.type=square\nphase.1.duration=1ms\n", "unknown kind"},
		{"no duration", "workload=ycsb\nphase.1.type=constant\nphase.1.load=1\n", "duration"},
		{"load range", "workload=ycsb\nphase.1.type=constant\nphase.1.duration=1ms\nphase.1.load=1.5\n", "[0, 1]"},
		{"hotspot range", "workload=ycsb\nphase.1.type=constant\nphase.1.duration=1ms\nphase.1.load=1\nphase.1.hotspot=1.0\n", "hotspot"},
		{"tpcc drift", "workload=tpcc\nwarehouses=4\nphase.1.type=constant\nphase.1.duration=1ms\nphase.1.load=1\nphase.1.hotspot=0.5\n", "keyed workload"},
		{"burst shape", "workload=ycsb\nphase.1.type=burst\nphase.1.duration=1ms\nphase.1.burst=2ms\nphase.1.every=1ms\n", "burst"},
		{"bad duration", "workload=ycsb\nphase.1.type=constant\nphase.1.duration=fast\n", "bad duration"},
		{"duplicate phase field", "workload=ycsb\nphase.1.type=constant\nphase.1.type=ramp\n", "duplicate"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.text), "t")
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestTimelineEvaluation(t *testing.T) {
	s := parse(t, `
workload=ycsb
phase.1.type=constant
phase.1.duration=1ms
phase.1.load=1.0
phase.2.type=ramp
phase.2.duration=1ms
phase.2.from=1.0
phase.2.to=0.5
phase.3.type=sine
phase.3.duration=2ms
phase.3.min=0.2
phase.3.max=0.8
phase.3.period=1ms
phase.4.type=burst
phase.4.duration=1ms
phase.4.base=0.1
phase.4.peak=0.9
phase.4.burst=100us
phase.4.every=400us
phase.4.hotspot=0.5
`)
	ms := func(f float64) sim.Time { return sim.Time(f * float64(sim.Millisecond)) }
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	if got := s.LoadAt(ms(0.5)); got != 1.0 {
		t.Fatalf("constant phase load %g", got)
	}
	if got := s.LoadAt(ms(1.5)); !approx(got, 0.75) {
		t.Fatalf("ramp midpoint load %g, want 0.75", got)
	}
	if got := s.LoadAt(ms(2.0)); !approx(got, 0.2) {
		t.Fatalf("sine start %g, want trough 0.2", got)
	}
	if got := s.LoadAt(ms(2.5)); !approx(got, 0.8) {
		t.Fatalf("sine half period %g, want crest 0.8", got)
	}
	if got := s.LoadAt(ms(4.05)); got != 0.9 {
		t.Fatalf("in-burst load %g", got)
	}
	if got := s.LoadAt(ms(4.25)); got != 0.1 {
		t.Fatalf("between-burst load %g", got)
	}
	// Beyond the end the final phase keeps cycling: 1.65ms into the
	// burst phase, 1650 % 400 = 50µs < the 100µs burst width.
	if got := s.LoadAt(ms(5.65)); got != 0.9 {
		t.Fatalf("post-timeline burst load %g", got)
	}
	if got := s.HotspotAt(ms(4.5)); got != 0.5 {
		t.Fatalf("hotspot %g", got)
	}
	if got := s.HotspotAt(ms(0.5)); got != 0 {
		t.Fatalf("phase 1 hotspot %g", got)
	}
	if s.PhaseAt(ms(9.9)) != 3 {
		t.Fatalf("post-timeline phase %d", s.PhaseAt(ms(9.9)))
	}
}

func TestGateAdmissionByRank(t *testing.T) {
	s := parse(t, `
workload=ycsb
phase.1.type=constant
phase.1.duration=1ms
phase.1.load=0.5
phase.2.type=constant
phase.2.duration=1ms
phase.2.load=1.0
`)
	const total = 10
	at := sim.Time(100 * sim.Microsecond)
	admitted := 0
	for c := 0; c < total; c++ {
		if s.Gate(at, c, total) == 0 {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("%d admitted at load 0.5 of %d", admitted, total)
	}
	// Gated coordinators never park past the next decision point, and
	// in phase 2 everyone is admitted.
	if w := s.Gate(at, 9, total); w <= 0 || w > DefaultResolution {
		t.Fatalf("gated wait %v", w)
	}
	for c := 0; c < total; c++ {
		if s.Gate(sim.Time(1500*sim.Microsecond), c, total) != 0 {
			t.Fatalf("coordinator %d gated at full load", c)
		}
	}
	// Load 0 gates everyone.
	zero := parse(t, "workload=ycsb\nphase.1.type=constant\nphase.1.duration=1ms\nphase.1.load=0\n")
	for c := 0; c < total; c++ {
		if zero.Gate(at, c, total) == 0 {
			t.Fatalf("coordinator %d admitted at load 0", c)
		}
	}
}

func TestGateHonorsBurstEdges(t *testing.T) {
	// A 30µs burst inside a 50µs resolution grid: edges must still be
	// exact decision points.
	s := parse(t, `
workload=ycsb
resolution=200us
phase.1.type=burst
phase.1.duration=1ms
phase.1.base=0
phase.1.peak=1
phase.1.burst=30us
phase.1.every=130us
`)
	// At t=40µs the burst is over; the gated coordinator must wake at
	// the next burst start (130µs), not the 200µs grid tick.
	w := s.Gate(sim.Time(40*sim.Microsecond), 0, 4)
	if w != 90*sim.Microsecond {
		t.Fatalf("gated wait %v, want 90µs to the next burst edge", w)
	}
	// Inside the burst everyone runs.
	if w := s.Gate(sim.Time(10*sim.Microsecond), 3, 4); w != 0 {
		t.Fatalf("in-burst gate %v", w)
	}
}

func TestTrivialTimelineNeverGatesOrDrifts(t *testing.T) {
	s := parse(t, `
workload=ycsb
phase.1.type=constant
phase.1.duration=1ms
phase.1.load=1.0
`)
	g := NewGenerator(s, ycsb.New(ycsb.Config{Records: 1000, N: 2, WriteRatio: 0.5, Theta: 0.99, CellSize: 40, NumCells: 4}))
	for _, at := range []sim.Time{0, sim.Time(500 * sim.Microsecond), sim.Time(10 * sim.Millisecond)} {
		for c := 0; c < 8; c++ {
			if w := g.Gate(at, c, 8); w != 0 {
				t.Fatalf("trivial timeline gated coordinator %d at %v", c, at)
			}
		}
	}
	// NextAt must generate exactly what Next would.
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	plain := ycsb.New(ycsb.Config{Records: 1000, N: 2, WriteRatio: 0.5, Theta: 0.99, CellSize: 40, NumCells: 4})
	for i := 0; i < 200; i++ {
		x := g.NextAt(sim.Time(i)*sim.Time(sim.Microsecond), a)
		y := plain.Next(b)
		if len(x.Blocks[0].Ops) != len(y.Blocks[0].Ops) {
			t.Fatal("op count diverged")
		}
		for oi := range x.Blocks[0].Ops {
			if x.Blocks[0].Ops[oi].Key != y.Blocks[0].Ops[oi].Key {
				t.Fatalf("txn %d op %d: key %d != %d", i, oi, x.Blocks[0].Ops[oi].Key, y.Blocks[0].Ops[oi].Key)
			}
		}
	}
}

func TestDriftRotatesKeysBijectively(t *testing.T) {
	s := parse(t, `
workload=smallbank
theta=0.9
phase.1.type=constant
phase.1.duration=1ms
phase.1.load=1.0
phase.2.type=constant
phase.2.duration=1ms
phase.2.load=1.0
phase.2.hotspot=0.25
`)
	const accounts = 1000
	g := NewGenerator(s, smallbank.New(smallbank.Config{Accounts: accounts, Theta: 0.9}))
	// Same RNG state: phase 1 leaves keys alone, phase 2 rotates them
	// by exactly a quarter of the key space.
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		x := g.NextAt(sim.Time(100*sim.Microsecond), a)
		y := g.NextAt(sim.Time(1100*sim.Microsecond), b)
		xo, yo := x.Blocks[0].Ops, y.Blocks[0].Ops
		if len(xo) != len(yo) {
			t.Fatal("op shape diverged")
		}
		for oi := range xo {
			want := (uint64(xo[oi].Key) + accounts/4) % accounts
			if uint64(yo[oi].Key) != want {
				t.Fatalf("txn %d op %d: drifted key %d, want %d", i, oi, yo[oi].Key, want)
			}
			// Distinctness within the transaction survives rotation.
			for oj := 0; oj < oi; oj++ {
				if yo[oi].Table == yo[oj].Table && yo[oi].Key == yo[oj].Key && xo[oi].Key != xo[oj].Key {
					t.Fatalf("rotation collided keys in txn %d", i)
				}
			}
		}
	}
}

func TestDriftSkipsInsertClaims(t *testing.T) {
	s := parse(t, `
workload=ycsb
requestdistribution=latest
insertproportion=0.4
readproportion=0.3
updateproportion=0.3
preloaded=500
phase.1.type=constant
phase.1.duration=1ms
phase.1.load=1.0
phase.1.hotspot=0.5
`)
	inner := ycsb.New(ycsb.Config{
		Records: 1000, N: 2, WriteRatio: 0.5, Theta: 0.99, CellSize: 40, NumCells: 4,
		Distribution: ycsb.DistLatest, InsertProportion: 0.4, PreLoaded: 500,
	})
	g := NewGenerator(s, inner)
	rng := rand.New(rand.NewSource(11))
	inserts := 0
	for i := 0; i < 500; i++ {
		before := inner.Frontier()
		txn := g.NextAt(sim.Time(100*sim.Microsecond), rng)
		if txn.Label == "ycsb-insert" {
			inserts++
			if got := int(txn.Blocks[0].Ops[0].Key); got != before {
				t.Fatalf("drift remapped an insert claim to %d, frontier %d", got, before)
			}
		}
	}
	if inserts == 0 {
		t.Fatal("no inserts generated")
	}
}

func TestKeyStableAndSensitive(t *testing.T) {
	a := DriftDemo()
	b := DriftDemo()
	if a.Key() != b.Key() {
		t.Fatalf("same spec, different keys: %s vs %s", a.Key(), b.Key())
	}
	if !strings.HasPrefix(a.Key(), "drift-demo@") {
		t.Fatalf("key %q lost its name", a.Key())
	}
	c := DriftDemo()
	c.Timeline[1].Hotspot = 0.34
	if c.Key() == a.Key() {
		t.Fatal("different timelines, same key")
	}
	d := DriftDemo()
	d.Name = "Drift Demo!"
	if !strings.HasPrefix(d.Key(), "driftdemo@") {
		t.Fatalf("name not sanitized: %q", d.Key())
	}
}

func TestDriftDemoMatchesExampleFile(t *testing.T) {
	pin.File(t, "../../examples/scenarios/drift-demo.spec", []byte(DriftDemoText))
}

func TestParseFileNamesAfterFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/steady.spec"
	if err := os.WriteFile(path, []byte("workload=smallbank\ntheta=0.9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "steady" {
		t.Fatalf("name %q", s.Name)
	}
	// An explicit name= wins.
	path2 := dir + "/other.spec"
	if err := os.WriteFile(path2, []byte("name=prod-day\nworkload=smallbank\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name != "prod-day" {
		t.Fatalf("name %q", s2.Name)
	}
}
