package bench

import (
	"encoding/binary"
	"fmt"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
)

// quiescent is what one drained run of a quiescence cell left behind,
// read through the quiesced hook before Run gave the pool back: the
// checks below share one simulation per cell.
type quiescent struct {
	res     Result // with its checked history
	err     error
	records int
	locked  []string                   // every lock word not zero, described
	pool    map[engine.CellID][]uint64 // each replica's value hash, in replica order
}

// quiescentRuns caches each cell's run for the tests after the first.
var quiescentRuns = map[string]*quiescent{}

// quiescenceCells runs check once per cell of the checks on what a
// drained run leaves behind: each engine, sequential and over four
// shard groups, at seeds 1–3 of skewed SmallBank. The cell is simulated
// once, with its history checked, for all of the checks.
func quiescenceCells(t *testing.T, check func(t *testing.T, q *quiescent)) {
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for _, shards := range []int{1, 4} {
			for _, seed := range []int64{1, 2, 3} {
				name := fmt.Sprintf("%s/smallbank/shards%d/seed%d", system, shards, seed)
				t.Run(name, func(t *testing.T) {
					q := quiescentRuns[name]
					if q == nil {
						cfg := shardedCfg(system, shards, "modulo")
						cfg.Seed = seed
						q = runQuiescent(cfg)
						quiescentRuns[name] = q
					}
					if q.err != nil {
						t.Fatal(q.err)
					}
					check(t, q)
				})
			}
		}
	}
}

// runQuiescent runs cfg with its history checked and reads every lock
// word and every cell of every replica once the run has drained.
func runQuiescent(cfg Config) *quiescent {
	lockOff := map[SystemKind]uint64{CREST: layout.OffLock, CRESTCell: layout.OffLock, CRESTBase: layout.OffLock,
		FORD: layout.BOffLock, Motor: layout.BOffLock}
	cfg.CheckHistory = true
	q := &quiescent{pool: map[engine.CellID][]uint64{}}
	quiesced = func(d *Deployment) {
		for _, def := range cfg.Workload().Tables() {
			tab := d.db.Table(def.Schema.ID)
			tab.Keys(func(key layout.Key, off uint64) {
				q.records++
				if w := lockWord(d.db, def.Schema.ID, key, lockOff[cfg.System]); w != 0 {
					q.locked = append(q.locked, fmt.Sprintf("table %d key %d: lock word %#x at quiescence", def.Schema.ID, key, w))
				}
				for _, n := range d.db.Pool.ReplicaNodes(def.Schema.ID, key) {
					rec := n.Region.Bytes()[off : off+uint64(tab.Heap.RecSize)]
					for c := range def.Schema.CellSizes {
						id := engine.CellID{Table: def.Schema.ID, Key: key, Cell: c}
						q.pool[id] = append(q.pool[id], engine.HashValue(cellValue(cfg.System, def.Schema, rec, c)))
					}
				}
			})
		}
	}
	defer func() { quiesced = nil }()
	q.res, q.err = Run(cfg)
	return q
}

// TestLocksFreeAtQuiescence: a run that has drained holds no lock.
// Every lock word of every record reads zero on every replica — for
// full CREST and its ablations every cell-lock bit, for FORD and Motor
// the record's owner — on each engine, sequential and sharded, at
// three seeds of skewed SmallBank. The pool is read before Run gives it
// back.
func TestLocksFreeAtQuiescence(t *testing.T) {
	quiescenceCells(t, func(t *testing.T, q *quiescent) {
		for i, l := range q.locked {
			if i == 5 {
				break
			}
			t.Error(l)
		}
		if q.res.Committed == 0 || q.res.Aborted == 0 || q.records == 0 {
			t.Fatalf("%d commits, %d aborts, %d records read: the run tests nothing", q.res.Committed, q.res.Aborted, q.records)
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
	quiescenceCells(t, func(t *testing.T, q *quiescent) {
		if q.res.HistoryErr != nil {
			t.Fatal(q.res.HistoryErr)
		}
		want := q.res.History.FinalState()
		if q.res.Committed == 0 || len(q.pool) == 0 || len(q.pool) != len(want) {
			t.Fatalf("%d commits, %d cells in the pool, %d in the history: the run tests nothing", q.res.Committed, len(q.pool), len(want))
		}
		bad := 0
		for id, hashes := range q.pool {
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
	quiescenceCells(t, func(t *testing.T, q *quiescent) {
		if q.res.HistoryErr != nil {
			t.Fatal(q.res.HistoryErr)
		}
		if q.res.Committed == 0 || len(q.res.History.Txns) == 0 {
			t.Fatalf("%d commits, %d transactions in the history: the run tests nothing", q.res.Committed, len(q.res.History.Txns))
		}
		seen := make(map[uint64]string, len(q.res.History.Txns))
		dups := 0
		for _, txn := range q.res.History.Txns {
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

// TestSmallBankMoneyConservedAtQuiescence: the conserving SmallBank mix
// (Balance, Amalgamate, SendPayment) moves money between accounts and
// never makes or destroys it, so once a run has drained every replica
// still holds the money that was loaded: its savings and checking
// balances sum to 2 × accounts × InitialBalance. Each engine,
// sequential and over four shard groups, at three seeds of 200
// accounts at θ 0.9; the pool is read before Run gives it back. A lost
// update, a doubled credit or a skipped backup write breaks the sum.
func TestSmallBankMoneyConservedAtQuiescence(t *testing.T) {
	const accounts = 200
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for _, shards := range []int{1, 4} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/shards%d/seed%d", system, shards, seed), func(t *testing.T) {
					cfg := shardedCfg(system, shards, "modulo")
					cfg.Seed = seed
					cfg.Workload = func() workload.Generator {
						return smallbank.NewConserving(smallbank.Config{Accounts: accounts, Theta: 0.9})
					}
					var sums []uint64 // per replica, in replica order; balances wrap as int64s do
					quiesced = func(d *Deployment) {
						for _, def := range cfg.Workload().Tables() {
							tab := d.db.Table(def.Schema.ID)
							tab.Keys(func(key layout.Key, off uint64) {
								for r, n := range d.db.Pool.ReplicaNodes(def.Schema.ID, key) {
									if r == len(sums) {
										sums = append(sums, 0)
									}
									rec := n.Region.Bytes()[off : off+uint64(tab.Heap.RecSize)]
									sums[r] += workload.GetU64(cellValue(cfg.System, def.Schema, rec, 0))
								}
							})
						}
					}
					defer func() { quiesced = nil }()
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Committed == 0 || len(sums) == 0 {
						t.Fatalf("%d commits, %d replicas read: the run tests nothing", res.Committed, len(sums))
					}
					for r, sum := range sums {
						if want := uint64(2 * accounts * smallbank.InitialBalance); sum != want {
							t.Errorf("replica %d: balances sum to %d, want %d", r, int64(sum), want)
						}
					}
				})
			}
		}
	}
}
