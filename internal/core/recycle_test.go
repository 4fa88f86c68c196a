package core

import (
	"reflect"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/sim"
)

// TestRetireByKeyLeavesTwoLiveObjects constructs the interleaving
// behind the record cache's one known identity bug and pins what
// happens today (DESIGN.md §4b, EXPERIMENTS.md "Known deviations"):
//
//  1. writer A resolves record 0 to object X in prepare pass 1 and
//     parks in pass 2, sitting out a release window (the DrainGrace a
//     forced release leaves behind) — X in hand, no reference;
//  2. reader B comes and goes; its release finds X unlocked and
//     unreferenced and retires it: the cache has no object for 0;
//  3. A wakes and registers on X all the same, and reader D, finding
//     nothing cached, creates X2: two live objects for one record;
//  4. A commits and its release retires X — by key, so the object
//     dropped from the cache is X2, which D still references.
//
// Throughout, X's shell must stay out of the free list and out of every
// other record's hands: A can name it from step 1 to the end.
func TestRetireByKeyLeavesTwoLiveObjects(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 8, false)
	cn := f.cns[0]
	rk := engine.RecKey{Table: 1, Key: 0}
	cA, cB, cD, cE := cn.NewCoordinator(0), cn.NewCoordinator(1), cn.NewCoordinator(2), cn.NewCoordinator(3)

	var x, x2 *object
	var heldRetired, twoLive, droppedReferenced bool
	done := 0
	commit := func(p *sim.Proc, c *Coordinator, txn *engine.Txn) {
		if a := c.Execute(p, txn); !a.Committed {
			t.Errorf("aborted: %v", a.Reason)
		}
		done++
	}
	f.env.Spawn("A", func(p *sim.Proc) {
		x = cA.getOrCreate(p, rk, f.sys.layouts[1])
		x.drainUntil = p.Now().Add(30 * sim.Microsecond)
		commit(p, cA, incTxn(0, 1, 1))
	})
	f.env.Spawn("B", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		var out []uint64
		commit(p, cB, readTxn(0, []int{0}, &out))
	})
	// E churns through the table's other records while A is parked, so
	// shells are recycled and reused all along.
	f.env.Spawn("E", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for k := layout.Key(1); k < 8; k++ {
			commit(p, cE, incTxn(k, 0, 1))
		}
	})
	f.env.Spawn("D", func(p *sim.Proc) {
		for x == nil || x.writers == 0 { // until A has registered on X
			p.Sleep(100 * sim.Nanosecond)
		}
		p.Sleep(3 * sim.Microsecond) // in flight when A's release lands
		var out []uint64
		commit(p, cD, readTxn(0, []int{0}, &out))
	})
	f.env.Spawn("watch", func(p *sim.Proc) {
		for done < 10 {
			p.Sleep(50 * sim.Nanosecond)
			if x == nil {
				continue
			}
			cached := cn.objs[rk]
			if x.life == objRetired && x.pins > 0 && cached == nil {
				heldRetired = true
			}
			if cached != nil && cached != x && cached.refTotal() > 0 && x.refTotal() > 0 {
				x2, twoLive = cached, true
			}
			if x2 != nil && cached == nil && x2.refTotal() > 0 && x2.life == objLive {
				droppedReferenced = true
			}
			if x.pins > 0 || x.refTotal() > 0 {
				if x.life == objRecycled {
					t.Errorf("%v: X recycled with pins=%d refs=%d", p.Now(), x.pins, x.refTotal())
					return
				}
				for k, o := range cn.objs {
					if o == x && k != rk {
						t.Errorf("%v: X, still held for record 0, handed out for %v", p.Now(), k)
						return
					}
				}
			}
		}
	})
	run(t, f)

	if !heldRetired {
		t.Error("step 2 not reached: X was never retired while A held it")
	}
	if !twoLive {
		t.Error("step 3 not reached: record 0 never had two referenced objects")
	}
	if !droppedReferenced {
		t.Error("step 4 not reached: A's release did not drop D's object from the cache")
	}
	if got := f.poolCell(f.sys.db.Pool.PrimaryOf(1, 0), 0, 1); got != 1 {
		t.Errorf("record 0 cell 1 = %d in the pool, want A's 1", got)
	}
	// Everyone is gone: both of record 0's objects ended on the free
	// list, once each.
	seen := map[*object]int{}
	for _, o := range cn.free[1] {
		seen[o]++
		if o.life != objRecycled || o.pins != 0 || o.refTotal() != 0 {
			t.Errorf("free shell %d/%d: life=%d pins=%d refs=%d", o.table, o.key, o.life, o.pins, o.refTotal())
		}
	}
	if seen[x] != 1 || seen[x2] != 1 {
		t.Errorf("X on the free list %d times, X2 %d times, want once each", seen[x], seen[x2])
	}
	if n := cn.CachedObjects(); n != 0 {
		t.Errorf("%d objects left in the cache", n)
	}
}

// TestRecycledShellStartsFresh: an object built in a used shell is, but
// for the storage it inherits, what newObject builds.
func TestRecycledShellStartsFresh(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 4, false)
	cn := f.cns[0]
	c := cn.NewCoordinator(0)
	f.env.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if a := c.Execute(p, incTxn(2, 1, 1)); !a.Committed {
				t.Errorf("abort: %v", a.Reason)
			}
		}
	})
	run(t, f)
	if len(cn.free[1]) != 1 {
		t.Fatalf("%d shells free after one record's attempts, want the one reused throughout", len(cn.free[1]))
	}
	used := cn.free[1][0]
	if used.epochs[1] == 0 || cap(used.cells[1].versions) == 0 {
		t.Fatal("the shell shows no trace of use; the test would prove nothing")
	}
	for c, v := range used.base {
		if v != nil {
			t.Errorf("free shell still holds base cell %d: it pins a chunk of the node's block arena", c)
		}
	}
	// Dirty what a quiescent object may still carry, then reuse.
	used.streak, used.drainUntil, used.scanGen, used.firstFetch = 3, 99, 7, 42
	used.cells[1].maxReadTS = 9
	lay, primary := f.sys.layouts[1], f.sys.db.Pool.PrimaryOf(1, 3)
	got := cn.newObject(engine.RecKey{Table: 1, Key: 3}, 4096, lay, primary)
	if got != used {
		t.Fatal("newObject did not take the free shell")
	}
	want := newObject(1, 3, 4096, lay, primary)
	for c := range got.cells {
		if len(got.cells[c].versions) != 0 || got.cells[c].maxReadTS != 0 {
			t.Errorf("cell %d: %d versions, maxReadTS %d", c, len(got.cells[c].versions), got.cells[c].maxReadTS)
		}
		want.cells[c].versions = got.cells[c].versions // empty, and the kept capacity is the point
	}
	// The lazy labels point at their own object; compare them apart.
	if !reflect.DeepEqual(&got.mu, labelledMutex(got)) || !reflect.DeepEqual(&got.stateQ, labelledQueue(got)) {
		t.Error("mutex or state queue not reset")
	}
	got.mu, got.stateQ, want.mu, want.stateQ = sim.Mutex{}, sim.WaitQueue{}, sim.Mutex{}, sim.WaitQueue{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recycled:\n%+v\nfresh:\n%+v", *got, *want)
	}
}

func labelledMutex(o *object) *sim.Mutex {
	var m sim.Mutex
	m.SetLabel((*objMuLabel)(o))
	return &m
}

func labelledQueue(o *object) *sim.WaitQueue {
	var q sim.WaitQueue
	q.SetLabel((*objStateLabel)(o))
	return &q
}

// TestInstallNeverOverwritesABase: a refresh gives the object new value
// storage and leaves the old intact — attempts that read the old base
// still hold slices into it — and skips the cells the node holds
// locked.
func TestInstallNeverOverwritesABase(t *testing.T) {
	lay := layout.NewRecord(layout.Schema{ID: 1, Name: "kv", CellSizes: []int{8, 4, 8}})
	image := func(v byte, en uint16) ([]byte, layout.Header) {
		data := make([]byte, lay.Size())
		var h layout.Header
		for c := 0; c < lay.NumCells(); c++ {
			h.EN[c] = en
			layout.PutCellVersion(data[lay.CellOff(c):], layout.CellVersion{EN: en, TS: uint64(en) * 10})
			for i := 0; i < lay.CellSize(c); i++ {
				data[lay.CellValueOff(c)+i] = v + byte(c)
			}
		}
		layout.EncodeHeader(data, h)
		return data, h
	}
	o := newObject(1, 0, 0, lay, nil)
	var chunks engine.Arena
	data, h := image(0x10, 1)
	o.install(&chunks, data, &h, 0)
	old := append([][]byte(nil), o.base...)
	for c, v := range old {
		if len(v) != lay.CellSize(c) || cap(v) != len(v) || v[0] != 0x10+byte(c) {
			t.Fatalf("cell %d after admission: % x (cap %d)", c, v, cap(v))
		}
	}
	data, h = image(0x20, 2)
	o.install(&chunks, data, &h, 0b010) // cell 1 is locked by this node
	for c, v := range old {
		if v[0] != 0x10+byte(c) {
			t.Errorf("cell %d: the refresh overwrote the value an earlier reader holds: % x", c, v)
		}
	}
	for c := range o.base {
		wantV, wantEN := byte(0x20), uint16(2)
		if c == 1 {
			wantV, wantEN = 0x10, 1
		}
		if o.base[c][0] != wantV+byte(c) || o.epochs[c] != wantEN || o.baseVer[c] != (layout.CellVersion{EN: wantEN, TS: uint64(wantEN) * 10}) {
			t.Errorf("cell %d after refresh: value % x, epoch %d, version %+v", c, o.base[c], o.epochs[c], o.baseVer[c])
		}
	}
}
