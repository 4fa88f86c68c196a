package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for crestperf when the runner
// re-executes it as a rep child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestLimits holds the tables to the benchmark contract's
// limits: names, units, counts, bounds, and the mandatory setup_s.
func TestManifestLimits(t *testing.T) {
	m := theManifest()
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, have %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	direction := func(n, better string) {
		t.Helper()
		if better != higher && better != lower {
			t.Errorf("metric %s: better is %q", n, better)
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		name("metric", e.Name)
		direction(e.Name, e.Better)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("metric %s: unit %q", e.Name, e.Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == lower
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, p := range m.PerLayer {
		name("metric", p.Name)
		direction(p.Name, p.Better)
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("metric %s: unit %q", p.Name, p.Unit)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// TestManifestMatchesFile pins the checked-in BENCHMARK.json to what
// `crestperf -manifest` prints.
func TestManifestMatchesFile(t *testing.T) {
	have, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `crestperf -manifest`; regenerate it")
	}
}

// TestSummarize checks the median and quartiles against values from
// Python's statistics.median and statistics.quantiles(n=4).
func TestSummarize(t *testing.T) {
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	}
	for _, c := range cases {
		s := summarize(c.in, false)
		if s.Q1 != c.q1 || s.Value != c.med || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.in, s, c.q1, c.med, c.q3)
		}
	}
	if s := summarize([]float64{1, 2, 6}, true); s.Value != 3 || s.Median != 2 {
		t.Errorf("summarize({1, 2, 6}, mean) = %+v, want value 3 beside median 2", s)
	}
	if s := summarize(nil, false); !math.IsNaN(s.Value) {
		t.Errorf("summarize(nil) = %+v, want NaN", s)
	}
}

func TestWorseBy(t *testing.T) {
	for _, c := range []struct {
		better    string
		base, cur float64
		want      float64
	}{
		{lower, 100, 110, 0.10},
		{lower, 100, 90, -0.10},
		{higher, 100, 90, 0.10},
		{higher, 100, 125, -0.25},
	} {
		if got := worseBy(c.better, c.base, c.cur); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.better, c.base, c.cur, got, c.want)
		}
	}
}

// TestCompareRepeat checks that two run sets on one seed are held to the
// same-seed bound on exact metrics and to the cross-seed bound on
// host-clock ones.
func TestCompareRepeat(t *testing.T) {
	report := func(scale func(m repMetric) float64) workloadReport {
		rep := workloadReport{Name: "w", SimFingerprint: "f"}
		for _, m := range endToEnd {
			rep.EndToEnd = append(rep.EndToEnd, metricValue{m.metricDef, single(100 * scale(m))})
		}
		return rep
	}
	first := report(func(repMetric) float64 { return 1 })
	// Every metric 5 % worse: within every cross-seed bound, beyond the
	// same-seed one.
	second := report(func(m repMetric) float64 {
		if m.Better == higher {
			return 0.95
		}
		return 1.05
	})
	r := &runner{spans: newSpanLog(), log: &bytes.Buffer{}}
	rows := r.compareRepeat(first, second)
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want %d", len(rows), len(endToEnd))
	}
	for i, row := range rows {
		if exact := endToEnd[i].exact; row.Pass == exact {
			t.Errorf("%s (exact %v) 5%% worse: pass %v, bound %v", row.Metric, exact, row.Pass, row.Bound)
		}
	}
	second.SimFingerprint = "g"
	before := len(r.failures)
	r.compareRepeat(first, second)
	if !strings.Contains(strings.Join(r.failures[before:], "\n"), "sim_fingerprint") {
		t.Error("a changed sim_fingerprint on one seed was not a failure")
	}
}

// cannedTraces is a `go tool pprof -traces` dump cut down to one stack
// per case the bucketing has to tell apart.
const cannedTraces = `File: crestperf
Build ID: 7d432a9189417ba13ae9b7e9a06808aeafdd01f6
Type: cpu
Time: 2026-09-25 22:41:08 UTC
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      10ms   runtime.casgstatus
             runtime.newstack
             crest/internal/core.(*Coordinator).executeLocalized
             crest/internal/core.(*Coordinator).Execute
             crest/internal/bench.Run.func1
             crest/internal/sim.(*Proc).run
-----------+-------------------------------------------------------
      20ms   runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
      10ms   runtime.nextFreeFast (inline)
             runtime.mallocgcSmallScanNoHeader
             runtime.mallocgc
             runtime.newobject
             crest/internal/workload/smallbank.(*Generator).amalgamate
             crest/internal/workload/smallbank.(*Generator).Next
             main.(*loopStartGen).Next
             crest/internal/bench.Run.func1
             crest/internal/sim.(*Proc).run
-----------+-------------------------------------------------------
      30ms   runtime.unlock2
             runtime.wakep
             runtime.chansend
             runtime.chansend1
             crest/internal/sim.(*Proc).park (inline)
             crest/internal/sim.(*Proc).Suspend (inline)
             crest/internal/rdma.PostMulti
             crest/internal/core.(*Coordinator).admit
             crest/internal/sim.(*Proc).run
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      20ms   fmt.(*pp).doPrintf
             fmt.Sprintf
             crest/internal/core.(*Coordinator).admit
             crest/internal/sim.(*Proc).run
`

func TestCPUSharesFromTraces(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(samples))
	}
	if got := samples[2].Frames[0]; got != "runtime.nextFreeFast" {
		t.Errorf("inline marker not stripped: innermost frame %q", got)
	}
	shares, err := cpuShares(samples, cpuLayers)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"core.cpu_share_pct":       30, // casgstatus under core, Sprintf under core.admit
		"go_runtime.cpu_share_pct": 30, // park_m and the GC worker: no repository frame
		"workload.cpu_share_pct":   10, // a workload sub-package counts as workload
		"sim.cpu_share_pct":        30, // the channel handoff is charged to sim.park, its innermost caller
		"rdma.cpu_share_pct":       0,
		"go_runtime.malloc_pct":    10,
		"go_runtime.sched_pct":     60,
		"go_runtime.gc_pct":        10,
		"go_runtime.fmt_pct":       20,
	}
	for k, v := range want {
		if got, ok := shares[k]; !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	sum := 0.0
	for k, v := range shares {
		if strings.HasSuffix(k, ".cpu_share_pct") {
			sum += v
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 100", sum)
	}
}

func TestCPUSharesRejectsUnknownLayer(t *testing.T) {
	samples := []stackSample{{Weight: 1, Frames: []string{"crest/internal/newpkg.F"}}}
	if _, err := cpuShares(samples, cpuLayers); err == nil {
		t.Error("a stack in an unlisted internal package was bucketed silently")
	}
}

func TestParseWeight(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.25s": 1.25, "500us": 0.0005, "2min": 120, "1.5hrs": 5400} {
		got, err := parseWeight(in)
		if err != nil || math.Abs(got.Seconds()-want) > 1e-9 {
			t.Errorf("parseWeight(%q) = %v, %v; want %v s", in, got, err, want)
		}
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	over := 4.5
	doc := document{
		Schema: schemaVersion,
		Host:   hostInfo{NumCPU: 2, GOMAXPROCS: 2, Workers: 2, GoVersion: "go1.24.0", Commit: "abc1234"},
		Seed:   1,
		Workloads: []workloadReport{{
			Name: "smallbank-hot", Why: "why", VirtualMS: 24, Reps: 6,
			SimFingerprint: "0123456789abcdef", Commits: 10, Events: 20, HostS: 1.5,
			EndToEnd:           []metricValue{{endToEnd[0].metricDef, stat{Value: 2, Median: 2, Q1: 1, Q3: 3, N: 6, Samples: []float64{1, 2, 3, 1, 2, 3}}}},
			PerLayer:           []metricValue{{metricDef{Name: "sim.cpu_share_pct", Unit: "%", Better: lower}, single(30)}},
			TracingOverheadPct: &over,
		}},
		Global:       []metricValue{{metricDef{Name: "sim.dispatch_ns", Unit: "ns", Better: lower}, single(400)}},
		VerifyRepeat: []repeatRow{{Workload: "smallbank-hot", Metric: "sim_kops", First: 1, Second: 1, Bound: 0.1, Pass: true}},
		OpsAttempted: 12,
	}
	var buf bytes.Buffer
	if err := doc.encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back document
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Errorf("document changed in a JSON round trip:\n have %+v\n want %+v", back, doc)
	}
}

func TestSpansChromeTrace(t *testing.T) {
	l := newSpanLog()
	endW := l.begin("workload.x")
	endR := l.begin("rep")
	l.add("loop", 0, 5)
	endR()
	endW()
	var buf bytes.Buffer
	if err := l.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	if p := doc.TraceEvents[2].Args["parent"]; p != "rep" {
		t.Errorf("loop's parent is %v, want rep", p)
	}
	if p := doc.TraceEvents[1].Args["parent"]; p != "workload.x" {
		t.Errorf("rep's parent is %v, want workload.x", p)
	}
}

// TestSmoke runs two workloads end to end at smoke size — the observed
// one, whose correctness pass compares against an unobserved twin, and
// the baseline engine — and reads the contract's result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns simulations")
	}
	for _, w := range []string{"smallbank-observed", "tpcc-ford"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-smoke", "-workload", w}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit code %d\n%s", w, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line of stdout is not the result object: %v", w, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 3 {
			t.Errorf("%s: correct %v, failed %d of %d attempted", w, line.Correct, line.Failed, line.Attempted)
		}
		for _, e := range endToEnd {
			v, ok := line.Metrics[e.Name]
			if !ok || !(v.Value > 0) || v.Unit != e.Unit {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w, e.Name, v, ok, e.Unit)
			}
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics on the result line, want %d", w, len(line.Metrics), len(endToEnd))
		}
	}
}
