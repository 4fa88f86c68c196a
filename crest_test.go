package crest

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"crest/internal/bench"
)

// newBankCluster builds a small two-table cluster (savings, checking)
// with n accounts holding 100 in each table.
func newBankCluster(t *testing.T, system System, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{System: system, Coordinators: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []TableSpec{
		{ID: 1, Name: "savings", CellSizes: []int{8}, Capacity: n + 8},
		{ID: 2, Name: "checking", CellSizes: []int{8, 8}, Capacity: n + 8},
	} {
		if err := c.CreateTable(spec); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		if err := c.Load(1, Key(k), [][]byte{U64(100, 8)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Load(2, Key(k), [][]byte{U64(100, 8), U64(0, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func transfer(from, to Key, amount uint64) *Txn {
	return NewTxn("transfer").AddBlock(
		Op{
			Table: 2, Key: from, ReadCells: []int{0}, WriteCells: []int{0},
			Hook: func(_ any, read [][]byte) [][]byte {
				return [][]byte{PutU64(read[0], GetU64(read[0])-amount)}
			},
		},
		Op{
			Table: 2, Key: to, ReadCells: []int{0}, WriteCells: []int{0},
			Hook: func(_ any, read [][]byte) [][]byte {
				return [][]byte{PutU64(read[0], GetU64(read[0])+amount)}
			},
		},
	)
}

func TestQuickstartFlow(t *testing.T) {
	for _, system := range []System{SystemCREST, SystemFORD, SystemMotor, SystemCRESTCell, SystemCRESTBase} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			c := newBankCluster(t, system, 16)
			res, err := c.Execute(transfer(1, 2, 30))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatal("transfer did not commit")
			}
			if res.Latency <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			a, err := c.ReadRow(2, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.ReadRow(2, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if GetU64(a[0]) != 70 || GetU64(b[0]) != 130 {
				t.Fatalf("balances %d/%d, want 70/130", GetU64(a[0]), GetU64(b[0]))
			}
		})
	}
}

func TestExecuteAllConcurrentTransfersConserveMoney(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 8)
	var txns []*Txn
	for i := 0; i < 32; i++ {
		txns = append(txns, transfer(Key(i%8), Key((i+3)%8), 5))
	}
	results, err := c.ExecuteAll(txns...)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Committed {
			t.Fatalf("txn %d did not commit", i)
		}
	}
	total := uint64(0)
	for k := 0; k < 8; k++ {
		row, err := c.ReadRow(2, Key(k), 0)
		if err != nil {
			t.Fatal(err)
		}
		total += GetU64(row[0])
	}
	if total != 800 {
		t.Fatalf("money not conserved: %d", total)
	}
}

// However many attempts it takes, a transaction ExecuteAll runs is one
// transaction to every view: one span, one why node and one flight
// record each, with the attempts its Result counts.
func TestExecuteAllRetriesAreOneTransactionToTheViews(t *testing.T) {
	c := newShardedBank(t, SystemCREST, 16, Config{ObserverOptions: ObserverOptions{Trace: true, Why: true, Flight: true}})
	var txns []*Txn
	for i := 0; i < 40; i++ {
		txns = append(txns, transfer(Key(i%3), Key(3+i%5), 1))
	}
	results, err := c.ExecuteAll(txns...)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, r := range results {
		want = append(want, r.Attempts)
	}
	slices.Sort(want)
	if want[len(want)-1] == 1 {
		t.Fatal("no transaction retried: the batch does not test retries")
	}
	var spans, whys, flights []int
	for _, s := range c.TraceSnapshot().Spans() {
		spans = append(spans, len(s.Attempts))
	}
	for _, x := range c.WhySnapshot().Txns {
		whys = append(whys, x.Attempt)
	}
	for _, x := range c.FlightSnapshot().Txns {
		flights = append(flights, x.Attempts)
	}
	for name, got := range map[string][]int{"trace": spans, "why": whys, "flight": flights} {
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d transactions with attempts %v, want %d with %v", name, len(got), got, len(want), want)
		}
	}
}

func TestKeyDependencyAcrossBlocks(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 8)
	type st struct{ target uint64 }
	s := &st{}
	txn := NewTxn("indirect").WithState(s)
	txn.AddBlock(Op{
		Table: 2, Key: 3, ReadCells: []int{1},
		Hook: func(state any, read [][]byte) [][]byte {
			state.(*st).target = GetU64(read[0]) + 5 // cell 1 is 0 → key 5
			return nil
		},
	})
	txn.AddBlock(Op{
		Table:      2,
		KeyFn:      func(state any) Key { return Key(state.(*st).target) },
		ReadCells:  []int{0},
		WriteCells: []int{0},
		Hook: func(_ any, read [][]byte) [][]byte {
			return [][]byte{PutU64(read[0], GetU64(read[0])+1)}
		},
	})
	if res, err := c.Execute(txn); err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	row, err := c.ReadRow(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if GetU64(row[0]) != 101 {
		t.Fatalf("dependent record = %d, want 101", GetU64(row[0]))
	}
}

func TestRecoverOnCRESTCluster(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 8)
	if _, err := c.Execute(transfer(0, 1, 10)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries == 0 || rep.Committed == 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.CellsRepaired != 0 {
		t.Fatal("clean cluster needed repairs")
	}
}

func TestRecoverRejectedOnBaselines(t *testing.T) {
	c := newBankCluster(t, SystemFORD, 4)
	if _, err := c.Recover(); err == nil {
		t.Fatal("FORD cluster accepted Recover")
	}
}

func TestMemoryNodeFailureSurfacesAndRecovers(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 8)
	if err := c.FailMemoryNode(99); err == nil {
		t.Fatal("bad node id accepted")
	}
	if err := c.FailMemoryNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreMemoryNode(0); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Execute(transfer(0, 1, 1)); err != nil || !res.Committed {
		t.Fatalf("cluster unusable after restore: %+v %v", res, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{MemNodes: 1, Replicas: 1}); err == nil {
		t.Fatal("replicas >= nodes accepted")
	}
	c, _ := NewCluster(Config{})
	if err := c.CreateTable(TableSpec{ID: 1, Name: "bad", CellSizes: nil, Capacity: 1}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if err := c.CreateTable(TableSpec{ID: 1, Name: "bad", CellSizes: []int{8}, Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := c.Execute(NewTxn("x")); err == nil {
		t.Fatal("execute before finalize accepted")
	}
}

func TestLoadAfterFinalizeRejected(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 4)
	if err := c.Load(1, 99, [][]byte{U64(1, 8)}); err == nil {
		t.Fatal("load after finalize accepted")
	}
	if err := c.Finalize(); err == nil {
		t.Fatal("double finalize accepted")
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() time.Duration {
		c := newBankCluster(t, SystemCREST, 8)
		var txns []*Txn
		for i := 0; i < 16; i++ {
			txns = append(txns, transfer(Key(i%4), Key(4+(i%4)), 2))
		}
		if _, err := c.ExecuteAll(txns...); err != nil {
			t.Fatal(err)
		}
		return c.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different virtual end times: %v vs %v", a, b)
	}
}

func TestRunBenchmarkQuick(t *testing.T) {
	res, err := RunBenchmark(BenchmarkConfig{RunSpec: RunSpec{
		System:       SystemCREST,
		Workload:     WorkloadSpec{Kind: WorkloadYCSB},
		Profile:      "quick",
		Coordinators: 24,
		Duration:     4 * time.Millisecond,
		Warmup:       time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.KOPS <= 0 || res.Committed == 0 {
		t.Fatalf("empty result %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

// A spec written by hand that leaves the testbed shape out is recorded
// under the key the experiment matrix gives the same run.
func TestRunBenchmarkKeysLikeTheMatrix(t *testing.T) {
	want := bench.Quick().Spec(SystemCREST, bench.YCSBSpec(0.99, 0.05, 4), 24)
	hand := want
	hand.MemNodes, hand.CompNodes = 0, 0
	res, err := RunBenchmark(BenchmarkConfig{RunSpec: hand})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != want.Key() {
		t.Fatalf("RunBenchmark recorded %q, the matrix keys the run %q", res.Key, want.Key())
	}
}

// A run description RunSpec.Validate rejects comes back as an error —
// never a panic from a generator or an all-zero result.
func TestRunBenchmarkRejectsHostileSpecs(t *testing.T) {
	for _, spec := range []RunSpec{
		{Workload: WorkloadSpec{Kind: "nope"}},
		{Workload: WorkloadSpec{Kind: WorkloadYCSB, Theta: 0.99, RecordsPerTx: -1}},
		{Workload: WorkloadSpec{Kind: WorkloadTPCC, Warehouses: -2}},
		{Coordinators: -3},
		{Duration: time.Millisecond}, // shorter than the default warmup
		{Shards: 65},
		{System: "oracle"},
	} {
		spec.Profile = "quick"
		if _, err := RunBenchmark(BenchmarkConfig{RunSpec: spec}); err == nil {
			t.Fatalf("accepted %+v", spec)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("%d experiments, want 16 (fig2-4, table1-2, exp1-8, scenario, crossover, tailprof): %v", len(ids), ids)
	}
	if ids[0] != "fig2" || ids[len(ids)-1] != "tailprof" {
		t.Fatalf("order: %v", ids)
	}
	if _, err := RunMatrix([]string{"nope"}, true, MatrixOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	m, err := RunMatrix([]string{"table1"}, true, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tabs := m.Experiments[0].Tables; len(tabs) != 2 || len(tabs[0].Rows) != 3 {
		t.Fatalf("table1 shape: %d tables", len(tabs))
	}
}

func TestInsertAndDeleteRows(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 8)
	if err := c.InsertRow(1, 100, [][]byte{U64(555, 8)}); err != nil {
		t.Fatal(err)
	}
	row, err := c.ReadRow(1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if GetU64(row[0]) != 555 {
		t.Fatalf("inserted row reads %d", GetU64(row[0]))
	}
	if err := c.DeleteRow(1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadRow(1, 100, 0); err == nil {
		t.Fatal("deleted row still readable")
	}
}

func TestRowOpsRejectedOnBaselines(t *testing.T) {
	c := newBankCluster(t, SystemMotor, 4)
	if err := c.InsertRow(1, 100, [][]byte{U64(1, 8)}); err == nil {
		t.Fatal("Motor cluster accepted InsertRow")
	}
	if err := c.DeleteRow(1, 0); err == nil {
		t.Fatal("Motor cluster accepted DeleteRow")
	}
}

func TestTxnBuilderValidation(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 4)
	// A read-only op without a hook gets a default no-op hook.
	txn := NewTxn("noop-read").AddBlock(Op{Table: 1, Key: 0, ReadCells: []int{0}})
	if res, err := c.Execute(txn); err != nil || !res.Committed {
		t.Fatalf("hookless read: %+v %v", res, err)
	}
	// A write op without a hook panics inside the engine; the sim
	// surfaces it as an error rather than crashing the process.
	bad := NewTxn("bad-write").AddBlock(Op{Table: 1, Key: 0, WriteCells: []int{0}})
	if _, err := c.Execute(bad); err == nil {
		t.Fatal("write op without hook did not error")
	}
}

func TestWithStateThreadsThroughHooks(t *testing.T) {
	c := newBankCluster(t, SystemCREST, 4)
	type counter struct{ reads int }
	st := &counter{}
	txn := NewTxn("stateful").WithState(st).AddBlock(
		Op{Table: 1, Key: 0, ReadCells: []int{0},
			Hook: func(s any, _ [][]byte) [][]byte { s.(*counter).reads++; return nil }},
		Op{Table: 1, Key: 1, ReadCells: []int{0},
			Hook: func(s any, _ [][]byte) [][]byte { s.(*counter).reads++; return nil }},
	)
	if res, err := c.Execute(txn); err != nil || !res.Committed {
		t.Fatalf("%+v %v", res, err)
	}
	if st.reads != 2 {
		t.Fatalf("hooks saw state %d times", st.reads)
	}
}

func TestMemoryNodeFailureSurfacesAsError(t *testing.T) {
	// With f=0 there is no backup: a transaction against the failed
	// node surfaces the fabric error through the simulation.
	c, err := NewCluster(Config{MemNodes: 1, Replicas: 0, CompNodes: 1, Coordinators: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(TableSpec{ID: 1, Name: "t", CellSizes: []int{8}, Capacity: 4}); err != nil {
		t.Fatal(err)
	}
	for k := Key(0); k < 4; k++ {
		if err := c.Load(1, k, [][]byte{U64(1, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := c.FailMemoryNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadRow(1, 0, 0); err == nil {
		t.Fatal("read against dead sole memory node succeeded")
	}
}

func TestResyncMemoryNodeViaCluster(t *testing.T) {
	c, err := NewCluster(Config{MemNodes: 3, Replicas: 1, CompNodes: 1, Coordinators: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(TableSpec{ID: 1, Name: "t", CellSizes: []int{8}, Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	for k := Key(0); k < 8; k++ {
		if err := c.Load(1, k, [][]byte{U64(7, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := c.FailMemoryNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreMemoryNode(1); err != nil {
		t.Fatal(err)
	}
	n, err := c.ResyncMemoryNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing resynced")
	}
	mc := newBankCluster(t, SystemMotor, 4)
	if _, err := mc.ResyncMemoryNode(0); err == nil {
		t.Fatal("Motor cluster accepted resync")
	}
}

// The trace, why and flight exporters stream their documents through a
// buffer of their own; a write that fails under them still comes back
// from Export as "writing <path>: …". /dev/full fails every write the
// way a full disk does.
func TestExportReportsAStreamedWriteError(t *testing.T) {
	const path = "/dev/full"
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no %s on this system", path)
	}
	res, err := RunBenchmark(BenchmarkConfig{
		RunSpec: RunSpec{System: SystemCREST, Workload: WorkloadSpec{Kind: WorkloadSmallBank}, Profile: "quick",
			Coordinators: 24, Duration: time.Millisecond, Warmup: 200 * time.Microsecond},
		ObserverOptions: ObserverOptions{Trace: true, Why: true, Flight: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, snapshot := range []any{res.Trace, res.Why, res.Flight} {
		_, err := Export(path, snapshot)
		if err == nil || !strings.HasPrefix(err.Error(), "writing "+path+": ") || !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("Export(%q, %T) = %v, want a wrapped ENOSPC", path, snapshot, err)
		}
	}
}

// The snapshot of an observer that was off is nil: Export names the
// view it cannot write and leaves no file behind.
func TestExportRejectsNilSnapshot(t *testing.T) {
	for _, tc := range []struct {
		view     string
		snapshot any
	}{
		{"trace", (*TraceSnapshot)(nil)},
		{"metrics", (*MetricsSnapshot)(nil)},
		{"why", (*WhySnapshot)(nil)},
		{"flight", (*FlightSnapshot)(nil)},
		{"runtime", (*RuntimeStats)(nil)},
		{"matrix", (*MatrixResult)(nil)},
	} {
		t.Run(tc.view, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.json")
			_, err := Export(path, tc.snapshot)
			if err == nil || !strings.Contains(err.Error(), "no "+tc.view+" snapshot") {
				t.Errorf("Export(%T(nil)) = %v, want an error naming the %s view", tc.snapshot, err, tc.view)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("Export(%T(nil)) left %s behind (stat: %v)", tc.snapshot, path, err)
			}
		})
	}
}
