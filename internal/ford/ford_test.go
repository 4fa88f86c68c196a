package ford

import (
	"encoding/binary"
	"testing"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// fixture builds a one-table FORD system: table 1 with two 8-byte
// cells per record, keys 0..n-1, both cells initialized to the key.
type fixture struct {
	env *sim.Env
	sys *engine.StrictSystem[rec]
	cns []engine.ComputeNode
}

func newFixture(t *testing.T, mns, cnCount, replicas, records int, history bool) *fixture {
	t.Helper()
	var obs engine.Observers
	if history {
		obs.History = engine.NewHistory()
	}
	return newObservedFixture(t, mns, cnCount, replicas, records, obs)
}

// newObservedFixture is newFixture with obs attached before the load
// (none when obs has neither a history nor a why recorder).
func newObservedFixture(t *testing.T, mns, cnCount, replicas, records int, obs engine.Observers) *fixture {
	t.Helper()
	env := sim.NewEnv(7)
	params := rdma.DefaultParams()
	params.JitterPct = 0
	fabric := rdma.NewFabric(env, params)
	pool := memnode.NewPool(fabric, mns, 16<<20, replicas)
	db := engine.NewDB(pool)
	if obs.History != nil || obs.Why != nil {
		db.Attach(obs, env, 0)
	}
	sys := New(db)
	sys.CreateTable(layout.Schema{ID: 1, Name: "kv", CellSizes: []int{8, 8}}, records+16)
	for k := 0; k < records; k++ {
		sys.Load(1, layout.Key(k), [][]byte{word(uint64(k)), word(uint64(k))})
	}
	if err := sys.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	f := &fixture{env: env, sys: sys}
	for i := 0; i < cnCount; i++ {
		cn := sys.NewComputeNode(i)
		cn.WarmCache()
		f.cns = append(f.cns, cn)
	}
	return f
}

func word(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// incTxn returns a transaction that adds delta to cell of key.
func incTxn(key layout.Key, cell int, delta uint64) *engine.Txn {
	t := &engine.Txn{Label: "inc"}
	t.Blocks = []engine.Block{{Ops: []engine.Op{{
		Table:      1,
		Key:        key,
		ReadCells:  []int{cell},
		WriteCells: []int{cell},
		Hook: func(_ any, read [][]byte) [][]byte {
			return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + delta)}
		},
	}}}}
	return t
}

// readTxn reads both cells of key into out.
func readTxn(key layout.Key, out *[2]uint64) *engine.Txn {
	t := &engine.Txn{Label: "read", ReadOnly: true}
	t.Blocks = []engine.Block{{Ops: []engine.Op{{
		Table:     1,
		Key:       key,
		ReadCells: []int{0, 1},
		Hook: func(_ any, read [][]byte) [][]byte {
			out[0] = binary.LittleEndian.Uint64(read[0])
			out[1] = binary.LittleEndian.Uint64(read[1])
			return nil
		},
	}}}}
	return t
}

// poolCell reads a cell value directly from a node's region.
func (f *fixture) poolCell(node *memnode.Node, key layout.Key, cell int) uint64 {
	tab := f.sys.DB().Table(1)
	off, ok := tab.AddrOf(key)
	if !ok {
		panic("key not loaded")
	}
	lay := layout.NewFORDRecord(tab.Schema)
	return binary.LittleEndian.Uint64(node.Region.Bytes()[off+uint64(lay.CellValueOff(cell)):])
}

func TestVerbCountsMatchTable2(t *testing.T) {
	f := newFixture(t, 2, 1, 0, 4, false)
	coord := f.cns[0].NewCoordinator(0)
	var att engine.Attempt
	var v rdma.Stats
	f.env.Spawn("c", func(p *sim.Proc) {
		// One read-write record and one read-only record.
		txn := incTxn(0, 0, 1)
		txn.Blocks[0].Ops = append(txn.Blocks[0].Ops, engine.Op{
			Table:     1,
			Key:       1,
			ReadCells: []int{0},
			Hook:      func(_ any, _ [][]byte) [][]byte { return nil },
		})
		v0 := f.sys.DB().Fabric.Stats()
		att = coord.Execute(p, txn)
		v = f.sys.DB().Fabric.Stats().Sub(v0)
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !att.Committed {
		t.Fatalf("abort: %v", att.Reason)
	}
	// Execution: CAS+READ for the locked record, READ for the other.
	// Validation: one READ. Commit: log WRITE + record WRITE + unlock
	// CAS.
	if v.CASes != 2 {
		t.Errorf("CASes = %d, want 2 (lock+unlock)", v.CASes)
	}
	if v.Reads != 3 {
		t.Errorf("READs = %d, want 3 (2 fetch + 1 validate)", v.Reads)
	}
	if v.Writes != 2 {
		t.Errorf("WRITEs = %d, want 2 (log + record)", v.Writes)
	}
}

func TestReadersSeeConsistentPairs(t *testing.T) {
	// Writers keep both cells of key 0 equal; readers must never
	// observe a mixed pair.
	f := newFixture(t, 2, 1, 0, 2, true)
	writerC := f.cns[0].NewCoordinator(0)
	readerC := f.cns[0].NewCoordinator(1)
	retry := engine.DefaultRetryPolicy()
	f.env.Spawn("writer", func(p *sim.Proc) {
		for j := 0; j < 20; j++ {
			txn := &engine.Txn{Label: "pair"}
			txn.Blocks = []engine.Block{{Ops: []engine.Op{{
				Table: 1, Key: 0, ReadCells: []int{0}, WriteCells: []int{0, 1},
				Hook: func(_ any, read [][]byte) [][]byte {
					v := binary.LittleEndian.Uint64(read[0]) + 1
					return [][]byte{word(v), word(v)}
				},
			}}}}
			for attempt := 1; ; attempt++ {
				if a := writerC.Execute(p, txn); a.Committed {
					break
				}
				p.Sleep(retry.Backoff(attempt, p.Rand()))
			}
		}
	})
	f.env.Spawn("reader", func(p *sim.Proc) {
		for j := 0; j < 40; j++ {
			var pair [2]uint64
			if a := readerC.Execute(p, readTxn(0, &pair)); a.Committed {
				if pair[0] != pair[1] {
					t.Errorf("observed torn pair %v", pair)
				}
			}
			p.Sleep(3 * sim.Microsecond)
		}
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.sys.DB().Obs.History.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
}

// TestLockLostToReleasingHolderIsAttributed: a lock CAS that loses to a
// holder whose release is still in flight is attributed to that
// holder's cells. H locks key 0 (cell 0) and aborts on key 1, which a
// foreign lock holds, so its abort path releases key 0. B's lock CAS on
// key 0 lands between H's lock and H's unlock and completes after H
// issued the unlock. The tracker must still name H: B's abort is false
// when B wants the other cell and true when it wants the same one.
func TestLockLostToReleasingHolderIsAttributed(t *testing.T) {
	for _, tc := range []struct {
		cell      int
		wantFalse bool
	}{{cell: 1, wantFalse: true}, {cell: 0, wantFalse: false}} {
		f := newFixture(t, 1, 1, 0, 2, false)
		tab := f.sys.DB().Table(1)
		off, _ := tab.AddrOf(1)
		node := f.sys.DB().Pool.PrimaryOf(1, 1)
		binary.LittleEndian.PutUint64(node.Region.Bytes()[off+layout.BOffLock:], 999)
		holder, loser := f.cns[0].NewCoordinator(0), f.cns[0].NewCoordinator(1)
		var h, b engine.Attempt
		f.env.Spawn("holder", func(p *sim.Proc) {
			txn := incTxn(0, 0, 1)
			txn.Blocks[0].Ops = append(txn.Blocks[0].Ops, incTxn(1, 0, 1).Blocks[0].Ops...)
			h = holder.Execute(p, txn)
		})
		f.env.Spawn("loser", func(p *sim.Proc) {
			p.Sleep(sim.Microsecond) // H's lock applied, H's unlock not yet
			b = loser.Execute(p, incTxn(0, tc.cell, 1))
		})
		if err := f.env.Run(); err != nil {
			t.Fatal(err)
		}
		if h.Committed || b.Committed || h.Reason != engine.AbortLockFail || b.Reason != engine.AbortLockFail {
			t.Fatalf("cell %d: holder %+v, loser %+v; want both to lose a lock", tc.cell, h, b)
		}
		if b.FalseConflict != tc.wantFalse {
			t.Errorf("cell %d: loser's false conflict = %v, want %v (holder covers cell 0)", tc.cell, b.FalseConflict, tc.wantFalse)
		}
	}
}

// TestWhyNamesReleasingHolder is the why recorder's side of
// TestLockLostToReleasingHolderIsAttributed: B's lock CAS on key 0
// loses to H and completes after H issued its unlock, and the edge it
// records names H, not the unattributed holder 0. A holding ends when
// its unlock completes, not when it is issued.
func TestWhyNamesReleasingHolder(t *testing.T) {
	why := causality.NewRecorder(causality.Options{})
	f := newObservedFixture(t, 1, 1, 0, 2, engine.Observers{Why: why})
	tab := f.sys.DB().Table(1)
	off, _ := tab.AddrOf(1)
	node := f.sys.DB().Pool.PrimaryOf(1, 1)
	binary.LittleEndian.PutUint64(node.Region.Bytes()[off+layout.BOffLock:], 999)
	holder, loser := f.cns[0].NewCoordinator(0), f.cns[0].NewCoordinator(1)
	var h, b engine.Attempt
	f.env.Spawn("holder", func(p *sim.Proc) {
		txn := incTxn(0, 0, 1)
		txn.Blocks[0].Ops = append(txn.Blocks[0].Ops, incTxn(1, 0, 1).Blocks[0].Ops...)
		h = holder.Execute(p, txn)
	})
	f.env.Spawn("loser", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // H's lock applied, H's unlock not yet
		b = loser.Execute(p, incTxn(0, 0, 1))
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Committed || b.Committed || h.Reason != engine.AbortLockFail || b.Reason != engine.AbortLockFail {
		t.Fatalf("holder %+v, loser %+v; want both to lose a lock", h, b)
	}
	snap := why.Snapshot()
	var hID, bID uint64 // H begins at 0, B a microsecond later
	for _, x := range snap.Txns {
		if x.Start == 0 {
			hID = x.ID
		} else {
			bID = x.ID
		}
	}
	found := false
	for _, e := range snap.Edges {
		if e.Waiter != bID || e.Kind != causality.KindLockFail || e.Key != 0 {
			continue
		}
		found = true
		if e.Holder != hID {
			t.Errorf("B's lock-fail edge on key 0 names holder %d, want H (%d)", e.Holder, hID)
		}
	}
	if !found || hID == 0 || bID == 0 {
		t.Fatalf("no lock-fail edge of B (%d) on key 0 among %d edges (H is %d)", bID, len(snap.Edges), hID)
	}
}
