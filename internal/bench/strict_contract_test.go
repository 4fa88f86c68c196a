package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// strictEngines are the systems that run the strict attempt driver
// (internal/engine/strict.go), each with what the contract below needs
// to know about its record format: where the lock word sits, whether
// the lock covers the whole record, and the steady-state allocations
// of one uncontended attempt as last measured (TestStrictAttemptAllocs):
// the hook's two, since the install's replica list and the conflict
// tracker's update ring stopped allocating, and since the cross-shard
// prepare did too on a two-group pool (7 there before).
var strictEngines = []struct {
	kind        SystemKind
	lockOff     uint64
	recordLevel bool
	allocs      float64
}{
	{FORD, layout.BOffLock, true, 2},
	{Motor, layout.BOffLock, true, 2},
	{CRESTBase, layout.OffLock, true, 2},
	{CRESTCell, layout.OffLock, false, 2},
}

// strictFixture is a one-table system: table 1 with three 8-byte cells
// per record, keys 0..records-1, every cell initialized to the key.
type strictFixture struct {
	t    *testing.T
	env  *sim.Env
	db   *engine.DB
	cns  []ComputeNode
	next int
}

func newStrictFixture(t *testing.T, kind SystemKind, mns, cns, replicas, records int) *strictFixture {
	t.Helper()
	return newStrictGroupsFixture(t, kind, 1, mns, cns, replicas, records)
}

// newStrictGroupsFixture is newStrictFixture on groups shard groups of
// mns memory nodes each, records placed by hash.
func newStrictGroupsFixture(t *testing.T, kind SystemKind, groups, mns, cns, replicas, records int) *strictFixture {
	t.Helper()
	env := sim.NewEnv(7)
	params := rdma.DefaultParams()
	params.JitterPct = 0
	pool, err := memnode.NewShardedPool(rdma.NewFabric(env, params), groups, mns, 16<<20, replicas, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB(pool)
	db.Attach(engine.Observers{History: engine.NewHistory()}, env, 0)
	sys, err := NewSystem(kind, db)
	if err != nil {
		t.Fatal(err)
	}
	sys.CreateTable(layout.Schema{ID: 1, Name: "kv", CellSizes: []int{8, 8, 8}}, records+16)
	for k := 0; k < records; k++ {
		v := word(uint64(k))
		sys.Load(1, layout.Key(k), [][]byte{v, v, v})
	}
	if err := sys.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	f := &strictFixture{t: t, env: env, db: db}
	for i := 0; i < cns; i++ {
		cn := sys.NewComputeNode(i)
		cn.WarmCache()
		f.cns = append(f.cns, cn)
	}
	return f
}

// coord creates the next coordinator, spreading them over the compute
// nodes.
func (f *strictFixture) coord() engine.Coordinator {
	c := f.cns[f.next%len(f.cns)].NewCoordinator(f.next)
	f.next++
	return c
}

func (f *strictFixture) run() {
	f.t.Helper()
	if err := f.env.Run(); err != nil {
		f.t.Fatal(err)
	}
}

// record returns node's bytes of key's record.
func (f *strictFixture) record(node *memnode.Node, key layout.Key) []byte {
	tab := f.db.Table(1)
	off, ok := tab.AddrOf(key)
	if !ok {
		f.t.Fatalf("key %d not loaded", key)
	}
	return node.Region.Bytes()[off : off+uint64(tab.Heap.RecSize)]
}

// lockWord returns the lock word at lockOff of key's record in table,
// OR-ed over every replica: zero exactly when no replica holds a lock
// bit. Full CREST and its ablations keep one bit per cell there; FORD
// and Motor the owner of the whole record.
func lockWord(db *engine.DB, table layout.TableID, key layout.Key, lockOff uint64) uint64 {
	off, ok := db.Table(table).AddrOf(key)
	if !ok {
		panic(fmt.Sprintf("key %d of table %d not loaded", key, table))
	}
	var w uint64
	for _, n := range db.Pool.ReplicaNodes(table, key) {
		w |= binary.LittleEndian.Uint64(n.Region.Bytes()[off+lockOff:])
	}
	return w
}

// cellValue returns cell's current value in rec, one replica's bytes
// of a record of schema sc in system's format: for full CREST and its
// ablations the cell's value after its version, for FORD the raw cell,
// for Motor the cell's copy in the newest valid version slot.
func cellValue(system SystemKind, sc layout.Schema, rec []byte, cell int) []byte {
	var off int
	switch system {
	case FORD:
		off = layout.NewFORDRecord(sc).CellValueOff(cell)
	case Motor:
		m := layout.NewMotorRecord(sc)
		newest, newestTS := -1, uint64(0)
		for i := 0; i < layout.MotorSlots; i++ {
			if valid, ts := layout.UnpackSlotMeta(layout.ReadWord(rec, m.SlotMetaOff(i))); valid && (newest < 0 || ts > newestTS) {
				newest, newestTS = i, ts
			}
		}
		if newest < 0 {
			panic("motor record with no valid version slot")
		}
		off = m.SlotCellOff(newest, cell)
	default:
		off = layout.NewRecord(sc).CellValueOff(cell)
	}
	return rec[off : off+sc.CellSizes[cell]]
}

func word(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// incOp adds delta to cell of key.
func incOp(key layout.Key, cell int, delta uint64) engine.Op {
	return engine.Op{
		Table: 1, Key: key, ReadCells: []int{cell}, WriteCells: []int{cell},
		Hook: func(_ any, read [][]byte) [][]byte {
			return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + delta)}
		},
	}
}

// readOp reads cell of key into out.
func readOp(key layout.Key, cell int, out *uint64) engine.Op {
	return engine.Op{
		Table: 1, Key: key, ReadCells: []int{cell},
		Hook: func(_ any, read [][]byte) [][]byte {
			*out = binary.LittleEndian.Uint64(read[0])
			return nil
		},
	}
}

func txnOf(label string, ops ...engine.Op) *engine.Txn {
	t := &engine.Txn{Label: label, Blocks: []engine.Block{{Ops: ops}}}
	t.ComputeReadOnly()
	return t
}

// slow makes op's hook hold the attempt (and its locks) for d first.
func slow(p *sim.Proc, d sim.Duration, op engine.Op) engine.Op {
	hook := op.Hook
	op.Hook = func(state any, read [][]byte) [][]byte {
		p.Sleep(d)
		return hook(state, read)
	}
	return op
}

func commitWithRetry(p *sim.Proc, c engine.Coordinator, txn *engine.Txn) {
	retry := engine.DefaultRetryPolicy()
	for attempt := 1; !c.Execute(p, txn).Committed; attempt++ {
		p.Sleep(retry.Backoff(attempt, p.Rand()))
	}
}

// TestStrictEngineContract holds every engine on the strict attempt
// driver to the behaviour the driver promises, whatever the record
// format underneath.
func TestStrictEngineContract(t *testing.T) {
	for _, eng := range strictEngines {
		eng := eng
		t.Run(string(eng.kind), func(t *testing.T) {
			t.Run("write commits and reaches every replica", func(t *testing.T) {
				f := newStrictFixture(t, eng.kind, 3, 1, 2, 4)
				c := f.coord()
				before := append([]byte(nil), f.record(f.db.Pool.PrimaryOf(1, 1), 1)...)
				var seen, other uint64
				f.env.Spawn("c", func(p *sim.Proc) {
					if a := c.Execute(p, txnOf("inc", incOp(1, 1, 5))); !a.Committed {
						t.Errorf("write aborted: %v", a.Reason)
					}
					read := readOp(1, 1, &seen)
					read.ReadCells = []int{1, 0}
					read.Hook = func(_ any, vals [][]byte) [][]byte {
						seen, other = binary.LittleEndian.Uint64(vals[0]), binary.LittleEndian.Uint64(vals[1])
						return nil
					}
					if a := c.Execute(p, txnOf("read", read)); !a.Committed {
						t.Errorf("read aborted: %v", a.Reason)
					}
				})
				f.run()
				if seen != 6 || other != 1 {
					t.Fatalf("cells read back as %d and %d, want 6 and 1", seen, other)
				}
				nodes := f.db.Pool.ReplicaNodes(1, 1)
				primary := f.record(nodes[0], 1)
				if bytes.Equal(primary, before) {
					t.Fatal("commit left the primary's record bytes untouched")
				}
				for _, n := range nodes[1:] {
					if !bytes.Equal(f.record(n, 1), primary) {
						t.Fatalf("backup node %d differs from the primary", n.ID)
					}
				}
			})

			t.Run("lost lock aborts and releases siblings", func(t *testing.T) {
				// One memory node, so the victim's two lock verbs share a
				// batch: the one on key 0 succeeds, the one on key 1 loses
				// to the blocker, and the abort must release key 0.
				f := newStrictFixture(t, eng.kind, 1, 1, 0, 2)
				blocker, victim := f.coord(), f.coord()
				var att engine.Attempt
				var midLock uint64
				f.env.Spawn("blocker", func(p *sim.Proc) {
					if a := blocker.Execute(p, txnOf("hold", slow(p, 100*sim.Microsecond, incOp(1, 0, 1)))); !a.Committed {
						t.Errorf("blocker aborted: %v", a.Reason)
					}
				})
				f.env.Spawn("victim", func(p *sim.Proc) {
					p.Sleep(10 * sim.Microsecond)
					att = victim.Execute(p, txnOf("two", incOp(0, 0, 1), incOp(1, 0, 1)))
					midLock = lockWord(f.db, 1, 0, eng.lockOff)
				})
				f.run()
				if att.Committed || att.Reason != engine.AbortLockFail {
					t.Fatalf("victim: committed=%v reason=%v, want a lock-conflict abort", att.Committed, att.Reason)
				}
				if att.FalseConflict {
					t.Error("same-cell conflict classified as false")
				}
				if midLock != 0 {
					t.Fatalf("aborted attempt left key 0 locked (%#x)", midLock)
				}
				for k := layout.Key(0); k < 2; k++ {
					if w := lockWord(f.db, 1, k, eng.lockOff); w != 0 {
						t.Fatalf("key %d lock word %#x at quiescence", k, w)
					}
				}
			})

			t.Run("stale read fails validation", func(t *testing.T) {
				f := newStrictFixture(t, eng.kind, 1, 1, 0, 2)
				reader, writer := f.coord(), f.coord()
				var att engine.Attempt
				var seen uint64
				f.env.Spawn("reader", func(p *sim.Proc) {
					// The second block's hook gives the writer time to
					// commit between the read of key 0 and its validation.
					txn := &engine.Txn{Label: "slow", Blocks: []engine.Block{
						{Ops: []engine.Op{readOp(0, 0, &seen)}},
						{Ops: []engine.Op{slow(p, 50*sim.Microsecond, incOp(1, 0, 1))}},
					}}
					att = reader.Execute(p, txn)
				})
				f.env.Spawn("writer", func(p *sim.Proc) {
					p.Sleep(10 * sim.Microsecond)
					if a := writer.Execute(p, txnOf("inc", incOp(0, 0, 7))); !a.Committed {
						t.Errorf("writer aborted: %v", a.Reason)
					}
				})
				f.run()
				if att.Committed || att.Reason != engine.AbortValidation {
					t.Fatalf("reader: committed=%v reason=%v, want a validation abort", att.Committed, att.Reason)
				}
				if w := lockWord(f.db, 1, 1, eng.lockOff); w != 0 {
					t.Fatalf("validation abort left key 1 locked (%#x)", w)
				}
			})

			t.Run("disjoint cells", func(t *testing.T) {
				f := newStrictFixture(t, eng.kind, 1, 2, 0, 2)
				c1, c2 := f.coord(), f.coord()
				var a1, a2 engine.Attempt
				f.env.Spawn("c1", func(p *sim.Proc) {
					a1 = c1.Execute(p, txnOf("inc", slow(p, 100*sim.Microsecond, incOp(0, 0, 1))))
				})
				f.env.Spawn("c2", func(p *sim.Proc) {
					p.Sleep(10 * sim.Microsecond)
					a2 = c2.Execute(p, txnOf("inc", incOp(0, 2, 1)))
				})
				f.run()
				if !a1.Committed {
					t.Fatalf("lock holder aborted: %v", a1.Reason)
				}
				switch {
				case !eng.recordLevel && !a2.Committed:
					t.Fatalf("cell-level locks conflicted on disjoint cells: %v", a2.Reason)
				case eng.recordLevel && (a2.Committed || a2.Reason != engine.AbortLockFail):
					t.Fatalf("record-level lock let a second writer through (committed=%v reason=%v)", a2.Committed, a2.Reason)
				case eng.recordLevel && !a2.FalseConflict:
					t.Fatal("disjoint-cell abort not classified as a false conflict")
				}
			})

			t.Run("key dependency across blocks", func(t *testing.T) {
				f := newStrictFixture(t, eng.kind, 2, 1, 0, 8)
				c := f.coord()
				type st struct{ next uint64 }
				var seen uint64
				f.env.Spawn("c", func(p *sim.Proc) {
					// Block 1 reads key 3 (holding 3); block 2 updates the
					// key that value names plus one.
					dep := incOp(0, 1, 1000)
					dep.KeyFn = func(state any) layout.Key { return layout.Key(state.(*st).next) }
					txn := &engine.Txn{Label: "chain", State: &st{}, Blocks: []engine.Block{
						{Ops: []engine.Op{{
							Table: 1, Key: 3, ReadCells: []int{0},
							Hook: func(state any, read [][]byte) [][]byte {
								state.(*st).next = binary.LittleEndian.Uint64(read[0]) + 1
								return nil
							},
						}}},
						{Ops: []engine.Op{dep}},
					}}
					if a := c.Execute(p, txn); !a.Committed {
						t.Errorf("chain aborted: %v", a.Reason)
					}
					c.Execute(p, txnOf("read", readOp(4, 1, &seen)))
				})
				f.run()
				if seen != 1004 {
					t.Fatalf("dependent record cell = %d, want 1004", seen)
				}
			})

			t.Run("concurrent increments serialize", func(t *testing.T) {
				f := newStrictFixture(t, eng.kind, 2, 2, 1, 4)
				const workers, incs = 8, 10
				for i := 0; i < workers; i++ {
					c := f.coord()
					f.env.Spawn("w", func(p *sim.Proc) {
						for j := 0; j < incs; j++ {
							commitWithRetry(p, c, txnOf("inc", incOp(layout.Key(j%2), j%3, 1)))
						}
					})
				}
				f.run()
				if err := f.db.Obs.History.Check(); err != nil {
					t.Fatalf("history not serializable: %v", err)
				}
				var total uint64
				reader := f.coord()
				f.env.Spawn("sum", func(p *sim.Proc) {
					for k := layout.Key(0); k < 2; k++ {
						for cell := 0; cell < 3; cell++ {
							var v uint64
							commitWithRetry(p, reader, txnOf("read", readOp(k, cell, &v)))
							total += v - uint64(k)
						}
					}
				})
				f.run()
				if total != workers*incs {
					t.Fatalf("increments summed to %d, want %d", total, workers*incs)
				}
			})
		})
	}
}

// TestStrictAttemptAllocs bounds the steady-state allocations of one
// uncontended attempt — a read-write record, a read-only record, so
// every phase runs — by the count recorded on strictEngines. In the
// "-2-groups" cases the pool is two shard groups, the written record in
// the one that is not the coordinator's home and the read one at home,
// so every commit pays the cross-shard prepare round: it allocates
// nothing. The history checker is off, as in a benchmark run.
func TestStrictAttemptAllocs(t *testing.T) {
	for _, eng := range strictEngines {
		eng := eng
		t.Run(string(eng.kind), func(t *testing.T) {
			strictAttemptAllocs(t, eng.kind, eng.allocs, newStrictFixture(t, eng.kind, 2, 1, 1, 4), 0, 1)
		})
	}
	for _, eng := range strictEngines {
		eng := eng
		t.Run(string(eng.kind)+"-2-groups", func(t *testing.T) {
			f := newStrictGroupsFixture(t, eng.kind, 2, 2, 1, 1, 16)
			pool := f.db.Pool
			home := pool.ShardOfNode(pool.LogNodes(f.next, 1)[0].ID) // the next coordinator's
			w, r := layout.Key(0), layout.Key(0)
			for pool.ShardOf(1, w) == home {
				w++
			}
			for pool.ShardOf(1, r) != home {
				r++
			}
			strictAttemptAllocs(t, eng.kind, eng.allocs, f, w, r)
		})
	}
}

// strictAttemptAllocs runs an increment of record w and a read of record
// r on a new coordinator of f until its scratch is at its steady state,
// then fails the test if one more attempt allocates more than allocs. A
// pool of more than one group must make every attempt cross-shard.
func strictAttemptAllocs(t *testing.T, kind SystemKind, allocs float64, f *strictFixture, w, r layout.Key) {
	f.db.Obs.History = nil
	c := f.coord()
	var sink uint64
	txn := txnOf("mixed", incOp(w, 0, 1), readOp(r, 1, &sink))
	cross := f.db.Pool.Shards() > 1
	var got float64
	f.env.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 64; i++ { // grow the scratch to its steady state
			c.Execute(p, txn)
		}
		got = testing.AllocsPerRun(200, func() {
			if a := c.Execute(p, txn); !a.Committed || a.CrossShard != cross {
				t.Errorf("uncontended attempt: committed %v (%v), cross-shard %v", a.Committed, a.Reason, a.CrossShard)
			}
		})
	})
	f.run()
	t.Logf("%s: %.0f allocs per attempt", kind, got)
	if got > allocs {
		t.Errorf("%s: %.0f allocs per attempt, %.0f when last measured", kind, got, allocs)
	}
}
