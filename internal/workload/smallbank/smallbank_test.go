package smallbank

import (
	"bytes"
	"math/rand"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
)

func TestTablesAndLoad(t *testing.T) {
	g := New(Config{Accounts: 100, Theta: 0.5})
	defs := g.Tables()
	if len(defs) != 2 {
		t.Fatalf("%d tables", len(defs))
	}
	for _, d := range defs {
		if err := d.Schema.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.Schema.NumCells() != 1 {
			t.Fatal("SmallBank records must have exactly one cell")
		}
	}
	perTable := map[layout.TableID]int{}
	g.Load(func(table layout.TableID, key layout.Key, cells [][]byte) {
		perTable[table]++
		if workload.GetU64(cells[0]) != InitialBalance {
			t.Fatal("bad initial balance")
		}
	})
	if perTable[SavingsTable] != 100 || perTable[CheckingTable] != 100 {
		t.Fatalf("loaded %v", perTable)
	}
}

// applyLocally runs a txn's hooks against an in-memory state map to
// validate workload-level semantics without an engine.
func applyLocally(t *testing.T, txn *engine.Txn, state map[layout.TableID]map[layout.Key][]byte) {
	t.Helper()
	for _, blk := range txn.Blocks {
		for i := range blk.Ops {
			op := &blk.Ops[i]
			key := op.ResolveKey(txn.State)
			rec := state[op.Table][key]
			if rec == nil {
				t.Fatalf("txn %s references unloaded record %d/%d", txn.Label, op.Table, key)
			}
			read := make([][]byte, len(op.ReadCells))
			for j := range read {
				read[j] = append([]byte(nil), rec...)
			}
			written := op.Hook(txn.State, read)
			if len(written) != len(op.WriteCells) {
				t.Fatalf("txn %s: %d written for %d cells", txn.Label, len(written), len(op.WriteCells))
			}
			for _, w := range written {
				state[op.Table][key] = w
			}
		}
	}
}

func TestConservingMixConservesMoney(t *testing.T) {
	g := NewConserving(Config{Accounts: 20, Theta: 0.9})
	state := map[layout.TableID]map[layout.Key][]byte{
		SavingsTable:  {},
		CheckingTable: {},
	}
	g.Load(func(table layout.TableID, key layout.Key, cells [][]byte) {
		state[table][key] = bytes.Clone(cells[0]) // the row is Load's, not the sink's
	})
	total := func() int64 {
		sum := int64(0)
		for _, tbl := range state {
			for _, v := range tbl {
				sum += int64(workload.GetU64(v))
			}
		}
		return sum
	}
	want := total()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		applyLocally(t, g.Next(rng), state)
	}
	if got := total(); got != want {
		t.Fatalf("money not conserved: %d → %d", want, got)
	}
}

func TestMixCoversAllTypes(t *testing.T) {
	g := New(DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	labels := map[string]int{}
	for i := 0; i < 2000; i++ {
		labels[g.Next(rng).Label]++
	}
	for _, want := range []string{"Balance", "DepositChecking", "TransactSavings", "Amalgamate", "WriteCheck", "SendPayment"} {
		if labels[want] == 0 {
			t.Fatalf("type %s never generated (%v)", want, labels)
		}
	}
	if labels["WriteCheck"] < labels["Balance"] {
		t.Fatalf("WriteCheck (25%%) should dominate Balance (15%%): %v", labels)
	}
}

func TestBalanceIsReadOnly(t *testing.T) {
	g := New(DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		txn := g.Next(rng)
		if txn.Label == "Balance" && !txn.ReadOnly {
			t.Fatal("Balance not marked read-only")
		}
		if txn.Label != "Balance" && txn.ReadOnly {
			t.Fatalf("%s marked read-only", txn.Label)
		}
	}
}

func TestSingleCellAccessesOnly(t *testing.T) {
	// Every SmallBank op touches only cell 0 — the paper's reason this
	// workload has zero false conflicts.
	g := New(DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		txn := g.Next(rng)
		for _, blk := range txn.Blocks {
			for _, op := range blk.Ops {
				for _, c := range append(append([]int(nil), op.ReadCells...), op.WriteCells...) {
					if c != 0 {
						t.Fatalf("%s touches cell %d", txn.Label, c)
					}
				}
			}
		}
	}
}
