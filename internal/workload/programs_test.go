package workload_test

import (
	"bytes"
	"math/rand"
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
// first attempt's output.
func TestHooksArePure(t *testing.T) {
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
				}
			}
		}
		if name == "tpcc" && len(labels) != 5 || name == "smallbank" && len(labels) != 6 {
			t.Fatalf("%s: 600 transactions covered only %v", name, labels)
		}
	}
}
