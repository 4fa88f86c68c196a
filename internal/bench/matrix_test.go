package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"crest/internal/sim"
	"crest/internal/workload/tpcc"
)

// matrixProfile is a miniature profile that exercises the exact code
// path of the quick/full profiles (same Profile struct, same
// experiment renderers, every experiment id) at test speed.
func matrixProfile() Profile {
	return Profile{
		Name:        "test",
		Duration:    1500 * sim.Microsecond,
		Warmup:      300 * sim.Microsecond,
		CoordSweep:  []int{6, 12},
		MaxCoords:   12,
		YCSBRecords: 3000,
		SBAccounts:  3000,
		TPCCScale: tpcc.Config{
			Districts:            4,
			CustomersPerDistrict: 8,
			Items:                64,
			OrdersPerDistrict:    16,
			MaxOrderLines:        10,
			HistoryCap:           1 << 10,
		},
		Replicas: 1,
		Seed:     1,
	}
}

func runMatrixJSON(t *testing.T, ids []string, p Profile, opt MatrixOptions) (*MatrixResult, string, []byte) {
	t.Helper()
	m, err := RunMatrix(ids, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.ResultSet().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return m, m.FormatTables(), buf.Bytes()
}

// TestMatrixParallelMatchesSequential is the golden guarantee behind
// -j: the full experiment suite rendered with one worker and with
// eight workers produces byte-identical tables and byte-identical
// JSON records.
func TestMatrixParallelMatchesSequential(t *testing.T) {
	p := matrixProfile()
	_, seqTables, seqJSON := runMatrixJSON(t, nil, p, MatrixOptions{Workers: 1})
	_, parTables, parJSON := runMatrixJSON(t, nil, p, MatrixOptions{Workers: 8})
	if seqTables != parTables {
		t.Errorf("-j 1 and -j 8 tables differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", seqTables, parTables)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("-j 1 and -j 8 JSON records differ")
	}
	if seqTables == "" {
		t.Fatal("no tables rendered")
	}
}

// TestMatrixDedupesAcrossExperiments asserts the structural headline:
// exp1, exp2 and exp3 declare overlapping sweeps, and a shared matrix
// run simulates each unique spec exactly once.
func TestMatrixDedupesAcrossExperiments(t *testing.T) {
	p := matrixProfile()
	ids := []string{"exp1", "exp2", "exp3"}
	declared := 0
	unique := map[string]bool{}
	for _, id := range ids {
		exp, _ := experimentByID(id)
		for _, spec := range exp.specs(p) {
			declared++
			unique[spec.Key()] = true
		}
	}
	// exp2 redraws exp1's grid and exp3 reuses its max-coordinator
	// column, so the unique set must be strictly smaller.
	if len(unique) >= declared {
		t.Fatalf("no cross-experiment overlap: %d declared, %d unique", declared, len(unique))
	}
	m, err := RunMatrix(ids, p, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Perf == nil || m.Perf.Simulated != len(unique) {
		t.Errorf("perf %+v, want exactly the %d unique specs simulated", m.Perf, len(unique))
	}
	if len(m.Records) != len(unique) {
		t.Errorf("recorded %d runs, want %d", len(m.Records), len(unique))
	}
}

func TestRunSpecKeyCanonical(t *testing.T) {
	p := matrixProfile()
	a := p.Spec(CREST, YCSBSpec(0.99, 0.5, 4), 12)
	b := p.Spec(CREST, YCSBSpec(0.99, 0.5, 4), 12)
	if a.Key() != b.Key() {
		t.Fatalf("identical specs key differently: %q vs %q", a.Key(), b.Key())
	}
	variants := []RunSpec{
		p.Spec(FORD, YCSBSpec(0.99, 0.5, 4), 12),
		p.Spec(CREST, YCSBSpec(0.9, 0.5, 4), 12),
		p.Spec(CREST, YCSBSpec(0.99, 0.75, 4), 12),
		p.Spec(CREST, YCSBSpec(0.99, 0.5, 2), 12),
		p.Spec(CREST, YCSBSpec(0.99, 0.5, 4), 6),
		p.Spec(CREST, SmallBankSpec(0.99), 12),
		p.Spec(CREST, TPCCSpec(40), 12),
	}
	seen := map[string]bool{a.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("spec %+v collides with an earlier key %q", v, v.Key())
		}
		seen[v.Key()] = true
	}
	// Seed, duration and profile scale are part of identity too.
	c := a
	c.Seed = 2
	d := a
	d.Duration = 2 * time.Millisecond
	e := a
	e.Profile = "full"
	f := a
	f.OneTxn = true
	for _, v := range []RunSpec{c, d, e, f} {
		if v.Key() == a.Key() {
			t.Fatalf("spec %+v shares key with base spec", v)
		}
	}
}

// TestRenderOfUndeclaredSpecPanics: rendering reads a primed store and
// never simulates, so a renderer that asks for a spec its dry run did
// not declare panics with that spec's key.
func TestRenderOfUndeclaredSpecPanics(t *testing.T) {
	p := matrixProfile()
	declared := p.Spec(FORD, SmallBankSpec(0.9), 6)
	undeclared := p.Spec(FORD, SmallBankSpec(0.5), 6)
	dry := true
	exp := experiment{id: "drift", render: func(p Profile, get getter) []Table {
		spec := undeclared
		if dry {
			spec, dry = declared, false
		}
		get(spec)
		return nil
	}}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, undeclared.Key()) {
			t.Fatalf("render of an undeclared spec: recovered %q, want a panic naming %s", msg, undeclared.Key())
		}
	}()
	runMatrix([]experiment{exp}, p, MatrixOptions{})
}

func TestResultSetRoundTrip(t *testing.T) {
	p := matrixProfile()
	m, err := RunMatrix([]string{"table2"}, p, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.ResultSet().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "`+SchemaVersion+`"`) {
		t.Fatalf("encoded set lacks schema version:\n%s", buf.String())
	}
	got, err := DecodeResultSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile != p.Name {
		t.Errorf("profile %q, want %q", got.Profile, p.Name)
	}
	if len(got.Runs) != len(m.Records) {
		t.Fatalf("decoded %d runs, want %d", len(got.Runs), len(m.Records))
	}
	for i, rec := range got.Runs {
		want := m.Records[i]
		if !reflect.DeepEqual(rec, want) {
			t.Errorf("run %d round-tripped to %+v, want %+v", i, *rec, *want)
		}
		if rec.Key != rec.Spec.Key() {
			t.Errorf("run %d key %q does not match its spec key %q", i, rec.Key, rec.Spec.Key())
		}
	}
	// A re-encode of the decoded set is byte-identical (stable order,
	// no timestamps).
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoded result set differs")
	}
	// Wrong schema versions are rejected.
	bad := bytes.Replace(buf.Bytes(), []byte(SchemaVersion), []byte("crest-bench/v999"), 1)
	if _, err := DecodeResultSet(bytes.NewReader(bad)); err == nil {
		t.Error("foreign schema version accepted")
	}
}

// TestCoordinatorTotalExact: a total that does not divide the compute
// nodes runs exactly that many coordinators (the old CLI silently
// rounded 100 down to 99).
func TestCoordinatorTotalExact(t *testing.T) {
	cfg := shortCfg(CREST, tinyYCSB)
	cfg.Coordinators = 10 // 3 compute nodes: 4+3+3
	cfg.Duration = 2 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coordinators != 10 {
		t.Fatalf("reported %d coordinators, want 10", res.Coordinators)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
}
