package bench

import (
	"encoding/binary"
	"fmt"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload/tpcc"
)

// quiescenceCells runs check once per cell of the checks on what a
// drained run leaves behind: each engine, sequential and over four
// shard groups, at seeds 1–3 of skewed SmallBank. cfg is the cell's
// configuration, not yet run.
func quiescenceCells(t *testing.T, check func(t *testing.T, cfg Config)) {
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for _, shards := range []int{1, 4} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/smallbank/shards%d/seed%d", system, shards, seed), func(t *testing.T) {
					cfg := shardedCfg(system, shards, "modulo")
					cfg.Seed = seed
					check(t, cfg)
				})
			}
		}
	}
}

// TestLocksFreeAtQuiescence: a run that has drained holds no lock.
// Every lock word of every record reads zero on every replica — for
// full CREST and its ablations every cell-lock bit, for FORD and Motor
// the record's owner — on each engine, sequential and sharded, at
// three seeds of skewed SmallBank. The pool is read before Run gives it
// back.
func TestLocksFreeAtQuiescence(t *testing.T) {
	lockOff := map[SystemKind]uint64{CREST: layout.OffLock, CRESTCell: layout.OffLock, CRESTBase: layout.OffLock,
		FORD: layout.BOffLock, Motor: layout.BOffLock}
	quiescenceCells(t, func(t *testing.T, cfg Config) {
		records, locked := 0, 0
		quiesced = func(d *Deployment) {
			for _, def := range cfg.Workload().Tables() {
				d.db.Table(def.Schema.ID).Keys(func(key layout.Key, _ uint64) {
					records++
					if w := lockWord(d.db, def.Schema.ID, key, lockOff[cfg.System]); w != 0 && locked < 5 {
						locked++
						t.Errorf("table %d key %d: lock word %#x at quiescence", def.Schema.ID, key, w)
					}
				})
			}
		}
		defer func() { quiesced = nil }()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed == 0 || res.Aborted == 0 || records == 0 {
			t.Fatalf("%d commits, %d aborts, %d records read: the run tests nothing", res.Committed, res.Aborted, records)
		}
	})
}

// TestFinalStateMatchesPoolAtQuiescence: what a drained run leaves in
// the pool is what its committed transactions wrote. Replaying the
// checked history serially (History.FinalState) gives every cell's
// value hash; every cell of every record must hash to it on every
// replica — on each engine, sequential and sharded, at three seeds of
// skewed SmallBank. The pool is read before Run gives it back.
func TestFinalStateMatchesPoolAtQuiescence(t *testing.T) {
	quiescenceCells(t, func(t *testing.T, cfg Config) {
		cfg.CheckHistory = true
		pool := map[engine.CellID][]uint64{} // each replica's value hash, in replica order
		quiesced = func(d *Deployment) {
			for _, def := range cfg.Workload().Tables() {
				tab := d.db.Table(def.Schema.ID)
				tab.Keys(func(key layout.Key, off uint64) {
					for _, n := range d.db.Pool.ReplicaNodes(def.Schema.ID, key) {
						rec := n.Region.Bytes()[off : off+uint64(tab.Heap.RecSize)]
						for c := range def.Schema.CellSizes {
							id := engine.CellID{Table: def.Schema.ID, Key: key, Cell: c}
							pool[id] = append(pool[id], engine.HashValue(cellValue(cfg.System, def.Schema, rec, c)))
						}
					}
				})
			}
		}
		defer func() { quiesced = nil }()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.HistoryErr != nil {
			t.Fatal(res.HistoryErr)
		}
		want := res.History.FinalState()
		if res.Committed == 0 || len(pool) == 0 || len(pool) != len(want) {
			t.Fatalf("%d commits, %d cells in the pool, %d in the history: the run tests nothing", res.Committed, len(pool), len(want))
		}
		bad := 0
		for id, hashes := range pool {
			for r, h := range hashes {
				if h != want[id] && bad < 5 {
					bad++
					t.Errorf("table %d key %d cell %d, replica %d: value hash %#x, history's final state %#x",
						id.Table, id.Key, id.Cell, r, h, want[id])
				}
			}
		}
	})
}

// TestTxnIDsUniqueAtQuiescence: no two committed transactions of a
// checked run share an id — on each engine, sequential and sharded, at
// three seeds of skewed SmallBank. Partition views draw ids from
// disjoint strides; the history is where a reused id would show.
func TestTxnIDsUniqueAtQuiescence(t *testing.T) {
	quiescenceCells(t, func(t *testing.T, cfg Config) {
		cfg.CheckHistory = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.HistoryErr != nil {
			t.Fatal(res.HistoryErr)
		}
		if res.Committed == 0 || len(res.History.Txns) == 0 {
			t.Fatalf("%d commits, %d transactions in the history: the run tests nothing", res.Committed, len(res.History.Txns))
		}
		seen := make(map[uint64]string, len(res.History.Txns))
		dups := 0
		for _, txn := range res.History.Txns {
			if first, dup := seen[txn.ID]; dup && dups < 5 {
				dups++
				t.Errorf("id %d committed twice: %s and %s", txn.ID, first, txn.Label)
			}
			seen[txn.ID] = txn.Label
		}
	})
}

// TestTPCCConsistencyAtQuiescence: what a drained TPC-C run leaves
// behind meets consistency condition 1 of the TPC-C specification —
// every warehouse's W_YTD is the sum of its districts' D_YTD — and
// the warehouses' W_YTD sum to the customers' C_YTD_PAYMENT. All three
// columns load as 0 and a committed Payment adds one amount to each,
// so a lost or doubled update to any of them breaks an equation. Each
// engine, at three seeds of the tiny TPC-C; the primaries are read
// before Run gives the pool back.
func TestTPCCConsistencyAtQuiescence(t *testing.T) {
	ytdCell := map[layout.TableID]int{tpcc.WarehouseTable: tpcc.WYtd, tpcc.DistrictTable: tpcc.DYtd, tpcc.CustomerTable: tpcc.CYtdPayment}
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/tpcc/seed%d", system, seed), func(t *testing.T) {
				cfg := shortCfg(system, tinyTPCC)
				cfg.Seed = seed
				scale := tinyTPCC().(*tpcc.Generator).Config()
				sum := map[layout.TableID]uint64{}
				wYtd := make([]uint64, scale.Warehouses)
				dYtd := make([]uint64, scale.Warehouses)
				quiesced = func(d *Deployment) {
					for _, def := range cfg.Workload().Tables() {
						c, ok := ytdCell[def.Schema.ID]
						if !ok {
							continue
						}
						tab := d.db.Table(def.Schema.ID)
						tab.Keys(func(key layout.Key, off uint64) {
							rec := d.db.Pool.PrimaryOf(def.Schema.ID, key).Region.Bytes()[off : off+uint64(tab.Heap.RecSize)]
							v := binary.LittleEndian.Uint64(cellValue(cfg.System, def.Schema, rec, c))
							sum[def.Schema.ID] += v
							switch def.Schema.ID {
							case tpcc.WarehouseTable:
								wYtd[key] = v
							case tpcc.DistrictTable:
								dYtd[int(key)/scale.Districts] += v
							}
						})
					}
				}
				defer func() { quiesced = nil }()
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed == 0 || sum[tpcc.WarehouseTable] == 0 {
					t.Fatalf("%d commits, W_YTD sums to %d: the run tests nothing", res.Committed, sum[tpcc.WarehouseTable])
				}
				for w := range wYtd {
					if wYtd[w] != dYtd[w] {
						t.Errorf("warehouse %d: W_YTD %d, its districts' D_YTD sum to %d", w, wYtd[w], dYtd[w])
					}
				}
				if w, c := sum[tpcc.WarehouseTable], sum[tpcc.CustomerTable]; w != c {
					t.Errorf("W_YTD sums to %d, C_YTD_PAYMENT to %d", w, c)
				}
			})
		}
	}
}
