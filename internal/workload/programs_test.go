package workload_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
	"crest/internal/workload/ycsb"
)

// generators are small instances of every generator, inserts included.
func generators() map[string]workload.Generator {
	y := ycsb.DefaultConfig()
	y.Records = 512
	yi := y
	yi.InsertProportion, yi.PreLoaded = 0.3, 256
	return map[string]workload.Generator{
		"tpcc": tpcc.New(tpcc.Config{Warehouses: 2, Districts: 2, CustomersPerDistrict: 8,
			Items: 32, OrdersPerDistrict: 16, MaxOrderLines: 10, HistoryCap: 64}),
		"smallbank":   smallbank.New(smallbank.Config{Accounts: 64, Theta: 0.9}),
		"ycsb":        ycsb.New(y),
		"ycsb-insert": ycsb.New(yi),
	}
}

// cellSizes maps every table of g to its cell sizes.
func cellSizes(g workload.Generator) map[layout.TableID][]int {
	sizes := map[layout.TableID][]int{}
	for _, def := range g.Tables() {
		sizes[def.Schema.ID] = def.Schema.CellSizes
	}
	return sizes
}

// fakeRead is a stand-in for a stored cell: an integer that depends on
// the record and the cell, in a cell of the schema's size.
func fakeRead(op *engine.Op, key layout.Key, cell, size int) []byte {
	if size < 8 {
		return workload.Text(uint64(key)+uint64(cell), size)
	}
	return workload.U64(uint64(op.Table)*1000+uint64(key)%97+uint64(cell), size)
}

// pass runs every hook of txn once, block by block in program order —
// what one attempt does — and returns each op's output. It fails the
// test if a hook changes a value it was handed or returns a value of
// the wrong shape.
func pass(t *testing.T, txn *engine.Txn, sizes map[layout.TableID][]int) [][][]byte {
	t.Helper()
	var out [][][]byte
	for bi := range txn.Blocks {
		ops := txn.Blocks[bi].Ops
		for oi := range ops {
			op := &ops[oi]
			key := op.ResolveKey(txn.State)
			read := make([][]byte, len(op.ReadCells))
			want := make([][]byte, len(op.ReadCells))
			for i, cell := range op.ReadCells {
				read[i] = fakeRead(op, key, cell, sizes[op.Table][cell])
				want[i] = bytes.Clone(read[i])
			}
			written := op.Hook(txn.State, read)
			for i := range read {
				if !bytes.Equal(read[i], want[i]) {
					t.Fatalf("%s block %d op %d: hook changed read value %d", txn.Label, bi, oi, i)
				}
			}
			if len(written) != len(op.WriteCells) {
				t.Fatalf("%s block %d op %d: %d values for %d write cells", txn.Label, bi, oi, len(written), len(op.WriteCells))
			}
			for i, cell := range op.WriteCells {
				if len(written[i]) != sizes[op.Table][cell] {
					t.Fatalf("%s block %d op %d: %d bytes for cell %d", txn.Label, bi, oi, len(written[i]), cell)
				}
			}
			out = append(out, written)
		}
	}
	return out
}

// TestHooksArePure holds every program of every generator to the value
// contract of engine.Op.Hook: read values are borrowed and never
// written to, and what a hook returned stays as it was when the
// transaction runs again — a retry — because a CREST version, a folded
// base cell or another transaction's ReadVals may still point at the
// first attempt's output. A retry that reads what the first attempt
// read also writes what it wrote: nothing a hook accumulates carries
// over from one attempt to the next.
func TestHooksArePure(t *testing.T) {
	differ := map[string]bool{}
	for name, g := range generators() {
		sizes := cellSizes(g)
		rng := rand.New(rand.NewSource(3))
		labels := map[string]bool{}
		for n := 0; n < 600; n++ {
			txn := g.Next(rng)
			labels[txn.Label] = true
			first := pass(t, txn, sizes)
			kept := make([][][]byte, len(first))
			for i, vals := range first {
				kept[i] = make([][]byte, len(vals))
				for j, v := range vals {
					kept[i][j] = bytes.Clone(v)
				}
			}
			second := pass(t, txn, sizes)
			for i, vals := range first {
				for j, v := range vals {
					if !bytes.Equal(v, kept[i][j]) {
						t.Fatalf("%s/%s: op %d value %d of the first attempt changed when the transaction ran again", name, txn.Label, i, j)
					}
					if len(v) > 0 && &v[0] == &second[i][j][0] {
						t.Fatalf("%s/%s: op %d value %d of the retry shares storage with the first attempt's", name, txn.Label, i, j)
					}
					if !bytes.Equal(second[i][j], v) {
						differ[fmt.Sprintf("%s/%s op %d", name, txn.Label, i)] = true
					}
				}
			}
		}
		if name == "tpcc" && len(labels) != 5 || name == "smallbank" && len(labels) != 6 {
			t.Fatalf("%s: 600 transactions covered only %v", name, labels)
		}
	}
	if len(differ) > 0 {
		var ops []string
		for op := range differ {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		t.Errorf("a retry reading the same values wrote different ones: %v", ops)
	}
}

// mallocs counts the heap objects f allocates. The caller holds
// GOMAXPROCS at 1, as testing.AllocsPerRun does.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestLoadAllocatesPerTable holds Load to a row per table: its
// allocations do not grow with the records it emits.
func TestLoadAllocatesPerTable(t *testing.T) {
	for name, g := range generators() {
		tables, records := len(g.Tables()), 0
		sink := func(layout.TableID, layout.Key, [][]byte) { records++ }
		got := testing.AllocsPerRun(3, func() { g.Load(sink) })
		records /= 4 // the warm-up and three runs
		t.Logf("%s: %.0f allocs for %d tables, %d records", name, got, tables, records)
		if budget := float64(6*tables + 8); got > budget || records < 100 {
			t.Errorf("%s: Load allocated %.0f times for %d tables and %d records, budget %.0f", name, got, tables, records, budget)
		}
	}
}

// programBudgets is what generating one transaction and running its
// hooks once may allocate, by label: the program object and, where a
// program's length is drawn, its ops (and NewOrder's lines), plus the
// two chunks of its Values if it writes anything. None of it is per op,
// per cell or per value. A YCSB program of up to four ops holds them,
// and a SmallBank program its first two Out entries, so a SmallBank
// transaction that writes one or two balances allocates only its byte
// chunk beside the program.
var programBudgets = map[string]uint64{
	"NewOrder": 5, "Payment": 3, "OrderStatus": 1, "Delivery": 3, "StockLevel": 1,
	"Balance": 1, "DepositChecking": 2, "TransactSavings": 2, "Amalgamate": 3, "WriteCheck": 2, "SendPayment": 2,
	"ycsb-read": 1, "ycsb-write": 3, "ycsb-insert": 3,
}

// TestProgramAllocationBudgets holds Next plus one pass over the hooks
// to programBudgets.
func TestProgramAllocationBudgets(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// mallocs counts the whole process: a collection starting inside a
	// measurement adds the runtime's own objects to it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, g := range generators() {
		sizes := cellSizes(g)
		rng := rand.New(rand.NewSource(5))
		worst := map[string]uint64{}
		for n := 0; n < 400; n++ {
			var txn *engine.Txn
			got := mallocs(func() { txn = g.Next(rng) })
			// The values the hooks will read, made outside the count.
			var reads [][][]byte
			for bi := range txn.Blocks {
				for oi := range txn.Blocks[bi].Ops {
					op := &txn.Blocks[bi].Ops[oi]
					read := make([][]byte, len(op.ReadCells))
					for i, cell := range op.ReadCells {
						read[i] = fakeRead(op, 0, cell, sizes[op.Table][cell])
					}
					reads = append(reads, read)
				}
			}
			got += mallocs(func() {
				i := 0
				for bi := range txn.Blocks {
					for oi := range txn.Blocks[bi].Ops {
						op := &txn.Blocks[bi].Ops[oi]
						op.ResolveKey(txn.State)
						op.Hook(txn.State, reads[i])
						i++
					}
				}
			})
			worst[txn.Label] = max(worst[txn.Label], got)
		}
		for label, got := range worst {
			budget, ok := programBudgets[label]
			if !ok {
				t.Errorf("%s: no allocation budget for %s", name, label)
			} else if got > budget {
				t.Errorf("%s: %s allocated %d times, budget %d", name, label, got, budget)
			}
		}
		t.Logf("%s: %v", name, worst)
	}
}

// TestPartitionSafeNextSharesNothing runs Next and the hooks of every
// generator that declares PartitionSafe from two goroutines at once, as
// two partitions' workers do: under -race it fails if a Next path keeps
// scratch in the generator.
func TestPartitionSafeNextSharesNothing(t *testing.T) {
	for name, g := range generators() {
		if !workload.IsPartitionSafe(g) {
			continue
		}
		sizes := cellSizes(g)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for n := 0; n < 500; n++ {
					txn := g.Next(rng)
					for _, op := range txn.Blocks[0].Ops {
						read := make([][]byte, len(op.ReadCells))
						for i, cell := range op.ReadCells {
							read[i] = fakeRead(&op, op.Key, cell, sizes[op.Table][cell])
						}
						op.Hook(txn.State, read)
					}
				}
			}()
		}
		wg.Wait()
		t.Logf("%s: two workers", name)
	}
}

func benchNext(b *testing.B, g workload.Generator) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next(rng)
	}
}

func BenchmarkNext(b *testing.B) {
	p := benchProfile()
	for _, name := range []string{"smallbank", "ycsb", "tpcc"} {
		b.Run(name, func(b *testing.B) { benchNext(b, p[name]) })
	}
}

func BenchmarkLoad(b *testing.B) {
	p := benchProfile()
	for _, name := range []string{"smallbank", "ycsb", "tpcc"} {
		b.Run(name, func(b *testing.B) {
			records := 0
			sink := func(layout.TableID, layout.Key, [][]byte) { records++ }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p[name].Load(sink)
			}
			b.ReportMetric(float64(records)/float64(b.N), "records/op")
		})
	}
}

// benchProfile are the generators at the quick profile's sizes
// (internal/bench.Quick, which this package cannot import).
func benchProfile() map[string]workload.Generator {
	y := ycsb.DefaultConfig()
	y.Records = 20_000
	return map[string]workload.Generator{
		"smallbank": smallbank.New(smallbank.Config{Accounts: 20_000, Theta: 0.99}),
		"ycsb":      ycsb.New(y),
		"tpcc": tpcc.New(tpcc.Config{Warehouses: 40, Districts: 10, CustomersPerDistrict: 16,
			Items: 256, OrdersPerDistrict: 32, MaxOrderLines: 10, HistoryCap: 1 << 13}),
	}
}
