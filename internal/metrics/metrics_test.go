package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"crest/internal/sim"
)

// fakeClock binds r to a controllable virtual clock, as BindEnv would
// to a live environment, without registering the simulator probes.
func fakeClock(r *Registry) *sim.Time {
	now := new(sim.Time)
	r.clock = func() sim.Time { return *now }
	r.next = *now + sim.Time(r.window)
	return now
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.BindEnv(nil) // must not dereference
	c := r.Counter("c_total", "", "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h", "", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	c.Inc()
	c.Add(5)
	g.Inc()
	g.Dec()
	g.Add(7)
	h.Observe(3)
	r.CounterFunc("cf", "", "", func() uint64 { return 1 })
	r.GaugeFunc("gf", "", "", func() int64 { return 1 })
	s := r.Snapshot()
	if len(s.Series) != 0 || len(s.Times) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestWindowingAttributesMutations(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	now := fakeClock(r)
	c := r.Counter("ops_total", "", "ops")
	g := r.Gauge("depth", "", "depth")

	// Window 0: [0µs, 10µs).
	c.Add(3)
	g.Add(5)
	// Window 1: [10µs, 20µs).
	*now = sim.Time(12 * sim.Microsecond)
	c.Add(4)
	// Window 3: two windows elapse silently; the sealed gap must carry
	// a zero delta for the counter and the boundary value for the gauge.
	*now = sim.Time(35 * sim.Microsecond)
	c.Inc()
	g.Add(-4)

	s := r.Snapshot()
	cs, gs := s.Find("ops_total", ""), s.Find("depth", "")
	if cs == nil || gs == nil {
		t.Fatal("series missing")
	}
	// Snapshot at 35µs seals windows 0..2 (window 3 is still open).
	if want := []float64{3, 4, 0}; !floatsEq(cs.Samples, want) {
		t.Fatalf("counter samples = %v, want %v", cs.Samples, want)
	}
	if want := []float64{5, 5, 5}; !floatsEq(gs.Samples, want) {
		t.Fatalf("gauge samples = %v, want %v", gs.Samples, want)
	}
	if cs.Total != 8 || gs.Total != 1 {
		t.Fatalf("totals %v/%v", cs.Total, gs.Total)
	}
	if len(s.Times) != 3 || s.Times[1] != sim.Time(10*sim.Microsecond) {
		t.Fatalf("window times %v", s.Times)
	}
}

func TestLateRegistrationBackfills(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	now := fakeClock(r)
	a := r.Counter("a_total", "", "")
	a.Inc()
	*now = sim.Time(25 * sim.Microsecond)
	a.Inc() // seals windows 0 and 1
	b := r.Counter("b_total", "", "")
	b.Inc()
	s := r.Snapshot()
	bs := s.Find("b_total", "")
	if want := []float64{0, 0}; !floatsEq(bs.Samples, want) {
		t.Fatalf("late series not backfilled: %v", bs.Samples)
	}
}

func TestWindowDisabled(t *testing.T) {
	r := NewRegistry(Options{}) // Window 0: totals only
	now := fakeClock(r)
	c := r.Counter("c_total", "", "")
	c.Add(2)
	*now = sim.Time(5 * sim.Millisecond)
	c.Add(3)
	s := r.Snapshot()
	if len(s.Times) != 0 {
		t.Fatalf("disabled series sealed %d windows", len(s.Times))
	}
	if got := s.Find("c_total", "").Total; got != 5 {
		t.Fatalf("total = %v", got)
	}
}

func TestRegisterIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry(Options{})
	fakeClock(r)
	a := r.Counter("x_total", `k="1"`, "")
	b := r.Counter("x_total", `k="1"`, "")
	a.Add(2)
	b.Add(3)
	if s := r.Snapshot(); len(s.Series) != 1 || s.Find("x_total", `k="1"`).Total != 5 {
		t.Fatalf("re-registration did not share state: %+v", s.Series)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", `k="1"`, "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(Options{})
	fakeClock(r)
	h := r.Histogram("lat_us", "", "", []int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	se := s.Find("lat_us", "")
	if se.Total != 7 || se.Sum != 120 {
		t.Fatalf("count/sum = %v/%v", se.Total, se.Sum)
	}
	// Cumulative: ≤1:2, ≤2:3, ≤4:4, ≤8:5, +Inf:7.
	wantCum := []uint64{2, 3, 4, 5, 7}
	for i, b := range se.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, b.Count, wantCum[i], se.Buckets)
		}
	}
	if se.Buckets[len(se.Buckets)-1].Le != 1<<63-1 {
		t.Fatal("missing +Inf bucket")
	}
}

func TestLogLinearBounds(t *testing.T) {
	got := LogLinearBounds(1, 64, 2)
	want := []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
}

func TestProbesSampledAtSeal(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	now := fakeClock(r)
	var dispatched uint64
	r.CounterFunc("disp_total", "", "", func() uint64 { return dispatched })
	c := r.Counter("c_total", "", "")
	dispatched = 7
	*now = sim.Time(15 * sim.Microsecond)
	c.Inc() // seals window 0; probe reads 7
	dispatched = 10
	s := r.Snapshot() // seals window 1 at 15µs... still open; totals read 10
	ds := s.Find("disp_total", "")
	if want := []float64{7}; !floatsEq(ds.Samples, want) {
		t.Fatalf("probe samples = %v, want %v", ds.Samples, want)
	}
	if ds.Total != 10 {
		t.Fatalf("probe total = %v", ds.Total)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	now := fakeClock(r)
	c := r.Counter("c_total", "", "")
	c.Inc()
	*now = sim.Time(10 * sim.Microsecond)
	s1 := r.Snapshot()
	c.Add(10)
	*now = sim.Time(20 * sim.Microsecond)
	r.Snapshot()
	if len(s1.Times) != 1 || s1.Find("c_total", "").Total != 1 {
		t.Fatal("earlier snapshot mutated by later activity")
	}
}

// tinySnapshot is a counter and a histogram over three windows.
func tinySnapshot() *Snapshot {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	now := fakeClock(r)
	c := r.Counter("ops_total", `verb="READ"`, "reads")
	h := r.Histogram("lat_us", "", "latency", []int64{1, 10, 100})
	c.Add(3)
	h.Observe(5)
	*now = sim.Time(30 * sim.Microsecond)
	return r.Snapshot()
}

func TestJSONRoundTrip(t *testing.T) {
	s := tinySnapshot()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	doc := jsonDoc{Snapshot: &Snapshot{}}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || doc.Schema != SchemaVersion {
		t.Fatalf("export does not decode as %s: %v", SchemaVersion, err)
	}
	got := doc.Snapshot
	if got.Window != s.Window || len(got.Times) != len(s.Times) || len(got.Series) != len(s.Series) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
	cs := got.Find("ops_total", `verb="READ"`)
	if cs == nil || cs.Total != 3 || !floatsEq(cs.Samples, s.Find("ops_total", `verb="READ"`).Samples) {
		t.Fatalf("series lost in round trip: %+v", cs)
	}
	hs := got.Find("lat_us", "")
	if hs == nil || len(hs.Buckets) != 4 || hs.Sum != 5 {
		t.Fatalf("histogram lost in round trip: %+v", hs)
	}

	// A registry with no instruments exports an empty list, not null.
	buf.Reset()
	if err := WriteJSON(&buf, NewRegistry(Options{}).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"series": []`) {
		t.Fatalf("empty registry exports %s", buf.String())
	}
}

func TestCSVExport(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	now := fakeClock(r)
	c := r.Counter("ops_total", "", "")
	g := r.Gauge("depth", "", "")
	h := r.Histogram("lat_us", "", "", []int64{1, 10})
	c.Add(2)
	g.Add(4)
	h.Observe(3)
	*now = sim.Time(20 * sim.Microsecond)
	s := r.Snapshot()

	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 windows
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "window_start_us,ops_total,depth,lat_us_count" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "0.000,2,4,1" {
		t.Fatalf("csv row 0 = %q", lines[1])
	}
	if lines[2] != "10.000,0,4,0" {
		t.Fatalf("csv row 1 = %q", lines[2])
	}
}

// validPromLine accepts comment lines and `name{labels} value` samples
// — the shape the text exposition format (0.0.4) requires.
func validPromLine(line string) bool {
	if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
		return true
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return false
	}
	name := fields[0]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return false
		}
		name = name[:i]
	}
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		ch := name[i]
		ok := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(i > 0 && ch >= '0' && ch <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	fakeClock(r)
	r.Counter("crest_ops_total", `verb="READ"`, "reads").Add(3)
	r.Counter("crest_ops_total", `verb="WRITE"`, "reads").Add(2)
	r.Gauge("crest_depth", "", "depth").Add(9)
	h := r.Histogram("crest_lat_us", "", "latency", []int64{1, 10})
	h.Observe(5)
	h.Observe(50)
	s := r.Snapshot()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !validPromLine(line) {
			t.Fatalf("invalid exposition line %q in:\n%s", line, out)
		}
	}
	for _, want := range []string{
		"# TYPE crest_ops_total counter",
		`crest_ops_total{verb="READ"} 3`,
		`crest_ops_total{verb="WRITE"} 2`,
		"crest_depth 9",
		"# TYPE crest_lat_us histogram",
		`crest_lat_us_bucket{le="10"} 1`,
		`crest_lat_us_bucket{le="+Inf"} 2`,
		"crest_lat_us_sum 55",
		"crest_lat_us_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE are emitted once per metric name, not per label set.
	if strings.Count(out, "# TYPE crest_ops_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
}

func TestSparklines(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	now := fakeClock(r)
	c := r.Counter("ops_total", "", "")
	for i := 0; i < 5; i++ {
		*now = sim.Time(i * 10 * int(sim.Microsecond))
		c.Add(uint64(i))
	}
	*now = sim.Time(50 * sim.Microsecond)
	s := r.Snapshot()
	var buf bytes.Buffer
	if err := WriteSparklines(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ops_total") || !strings.Contains(out, "min=") {
		t.Fatalf("sparkline output:\n%s", out)
	}
	// Empty snapshot renders the no-windows notice rather than failing.
	buf.Reset()
	if err := WriteSparklines(&buf, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no sealed windows") {
		t.Fatalf("empty sparkline output: %q", buf.String())
	}
}

func TestDroppedWindowsBounded(t *testing.T) {
	r := NewRegistry(Options{Window: sim.Duration(1)})
	now := fakeClock(r)
	c := r.Counter("c_total", "", "")
	*now = sim.Time(MaxWindows + 1000)
	c.Inc()
	s := r.Snapshot()
	if len(s.Times) != MaxWindows {
		t.Fatalf("stored %d windows", len(s.Times))
	}
	if s.DroppedWindows == 0 {
		t.Fatal("no dropped-window count")
	}
}

// TestHotPathZeroAlloc is the PR's allocation guard: once instruments
// exist and no window boundary is crossed, counter/gauge/histogram
// mutations must not allocate. Window sealing amortizes its appends and
// is exercised (and excluded) separately.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry(Options{Window: sim.Duration(1 * sim.Second)})
	fakeClock(r)
	c := r.Counter("c_total", "", "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h", "", "", LogLinearBounds(1, 1<<20, 2))
	// Warm up.
	c.Inc()
	g.Inc()
	h.Observe(17)
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Inc()
		g.Dec()
		g.Add(5)
		h.Observe(123)
		h.Observe(1 << 19)
	}); avg != 0 {
		t.Fatalf("hot path allocates %v/op", avg)
	}
	// The disabled path must be allocation-free too.
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	if avg := testing.AllocsPerRun(1000, func() {
		nilC.Inc()
		nilG.Add(1)
		nilH.Observe(1)
	}); avg != 0 {
		t.Fatalf("nil path allocates %v/op", avg)
	}
}

func floatsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
