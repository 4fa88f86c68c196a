package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
)

// randomWorkload generates random multi-table transactions: random
// cell-level read/write sets, random block structure with key
// dependencies, random skew. It exists to fuzz all five system
// configurations against the serializability checker with access
// patterns no hand-written workload covers.
type randomWorkload struct {
	rng     *rand.Rand
	tables  []workload.TableDef
	pickers []*workload.KeyPicker
}

func newRandomWorkload(seed int64) *randomWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &randomWorkload{rng: rng}
	nTables := rng.Intn(3) + 1
	for t := 0; t < nTables; t++ {
		nCells := rng.Intn(5) + 1
		sizes := make([]int, nCells)
		for c := range sizes {
			sizes[c] = 8 + rng.Intn(3)*8
		}
		records := 8 + rng.Intn(24)
		w.tables = append(w.tables, workload.TableDef{
			Schema: layout.Schema{
				ID:        layout.TableID(60 + t),
				Name:      fmt.Sprintf("rand%d", t),
				CellSizes: sizes,
			},
			Capacity: records,
		})
		theta := 0.0
		if rng.Intn(2) == 0 {
			theta = 0.5 + rng.Float64()*0.7
		}
		w.pickers = append(w.pickers, workload.NewKeyPicker(records, theta))
	}
	return w
}

func (w *randomWorkload) Name() string                { return "random" }
func (w *randomWorkload) Tables() []workload.TableDef { return w.tables }

func (w *randomWorkload) Load(fn func(layout.TableID, layout.Key, [][]byte)) {
	for ti, def := range w.tables {
		for k := 0; k < def.Capacity; k++ {
			cells := make([][]byte, def.Schema.NumCells())
			for c := range cells {
				cells[c] = workload.U64(uint64(ti*1000+k), def.Schema.CellSizes[c])
			}
			fn(def.Schema.ID, layout.Key(k), cells)
		}
	}
}

// Next builds a transaction of 1–3 blocks; later blocks may resolve a
// key from a value read in block one (a key dependency).
func (w *randomWorkload) Next(rng *rand.Rand) *engine.Txn {
	type st struct{ seen uint64 }
	state := &st{}
	txn := &engine.Txn{Label: "random", State: state}
	nBlocks := rng.Intn(2) + 1
	used := map[[2]uint64]bool{}
	for b := 0; b < nBlocks; b++ {
		var ops []engine.Op
		nOps := rng.Intn(3) + 1
		for o := 0; o < nOps; o++ {
			ti := rng.Intn(len(w.tables))
			def := w.tables[ti]
			key := w.pickers[ti].Pick(rng)
			if used[[2]uint64{uint64(def.Schema.ID), uint64(key)}] {
				continue // one op per record per txn
			}
			used[[2]uint64{uint64(def.Schema.ID), uint64(key)}] = true
			nCells := def.Schema.NumCells()
			readCell := rng.Intn(nCells)
			op := engine.Op{
				Table:     def.Schema.ID,
				Key:       key,
				ReadCells: []int{readCell},
			}
			if rng.Intn(2) == 0 {
				writeCell := rng.Intn(nCells)
				op.WriteCells = []int{writeCell}
				if writeCell == readCell {
					op.Hook = func(_ any, read [][]byte) [][]byte {
						return [][]byte{workload.PutU64(read[0], workload.GetU64(read[0])+1)}
					}
				} else {
					size := def.Schema.CellSizes[writeCell]
					op.Hook = func(s any, read [][]byte) [][]byte {
						s.(*st).seen += workload.GetU64(read[0])
						return [][]byte{workload.U64(s.(*st).seen, size)}
					}
				}
			} else {
				op.Hook = func(s any, read [][]byte) [][]byte {
					s.(*st).seen += workload.GetU64(read[0])
					return nil
				}
			}
			ops = append(ops, op)
		}
		if len(ops) > 0 {
			txn.Blocks = append(txn.Blocks, engine.Block{Ops: ops})
		}
	}
	if len(txn.Blocks) == 0 {
		return w.Next(rng)
	}
	txn.ComputeReadOnly()
	return txn
}

// TestFuzzSerializableAcrossSystems runs randomized workloads through
// every system configuration and checks the recorded histories.
func TestFuzzSerializableAcrossSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep is slow")
	}
	systems := []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor}
	for seed := int64(1); seed <= 12; seed++ {
		for _, system := range systems {
			seed, system := seed, system
			t.Run(fmt.Sprintf("seed%d/%s", seed, system), func(t *testing.T) {
				cfg := Config{
					System:       system,
					Workload:     func() workload.Generator { return newRandomWorkload(seed) },
					MemNodes:     2,
					CompNodes:    2,
					Coordinators: 8,
					Replicas:     1,
					Seed:         seed,
					Duration:     3_000_000, // 3ms virtual
					Warmup:       1,
					CheckHistory: true,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.HistoryErr != nil {
					t.Fatalf("seed %d %s: %v", seed, system, res.HistoryErr)
				}
				if res.Committed == 0 {
					t.Fatalf("seed %d %s: nothing committed", seed, system)
				}
			})
		}
	}
}
