package causality_test

import (
	"math/rand"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// updaterHistoryLen is how many of a record's latest updaters the why
// recorder can name.
const updaterHistoryLen = 16

type holderEntry struct{ id, mask, owner uint64 }

type updEntry struct{ version, id, cells uint64 }

// refRec is the why recorder's record state as it was first written, a
// holder slice and a 16-entry updater array: the reference the record
// table (now engine's contention table) must answer like.
type refRec struct {
	holders []holderEntry
	ring    [updaterHistoryLen]updEntry
	n, pos  int
}

func (rs *refRec) lock(id, mask, owner uint64) {
	rs.holders = append(rs.holders, holderEntry{id: id, mask: mask, owner: owner})
}

func (rs *refRec) holds(owner uint64) bool {
	for _, h := range rs.holders {
		if h.owner == owner {
			return true
		}
	}
	return false
}

func (rs *refRec) unlock(owner uint64) {
	kept := rs.holders[:0]
	for _, h := range rs.holders {
		if h.owner != owner {
			kept = append(kept, h)
		}
	}
	rs.holders = kept
}

func (rs *refRec) holderOf(mask uint64) uint64 {
	for _, h := range rs.holders {
		if mask == 0 || h.mask == 0 || h.mask&mask != 0 {
			return h.id
		}
	}
	return 0
}

func (rs *refRec) update(e updEntry) {
	if rs.n < updaterHistoryLen {
		rs.ring[rs.n] = e
		rs.n++
		return
	}
	rs.ring[rs.pos] = e
	rs.pos = (rs.pos + 1) % updaterHistoryLen
}

func (rs *refRec) updaterSince(since uint64) uint64 {
	var best, bestVer uint64
	for _, e := range rs.ring[:rs.n] {
		if e.version > since && e.version >= bestVer && e.id != 0 {
			best, bestVer = e.id, e.version
		}
	}
	return best
}

// TestRecordTableMatchesReference drives the record table the why
// recorder's holders and updaters come from — engine's contention
// table — and the reference through the same random locks, unlocks and
// updates on a few records of two tables — up to six holders at once,
// so the holder list spills, and versions that repeat and go back, so
// ties in the updater ring are broken by slot as before — and checks
// every answer agrees. An unlock ends all of its owner's holdings; one
// of an owner holding nothing is not made.
func TestRecordTableMatchesReference(t *testing.T) {
	env := sim.NewEnv(1)
	pool := memnode.NewPool(rdma.NewFabric(env, rdma.DefaultParams()), 2, 1<<20, 1)
	db := engine.NewDB(pool)
	for _, id := range []layout.TableID{1, 2} {
		db.CreateTable(layout.Schema{ID: id, Name: "t", CellSizes: []int{8, 8}}, 64, 3)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := engine.NewConflictTracker(db.Tables)
		ref := map[[2]uint64]*refRec{}
		for op := 0; op < 4000; op++ {
			table, slot := layout.TableID(1+rng.Intn(2)), rng.Intn(3)
			k := [2]uint64{uint64(table), uint64(slot)}
			if ref[k] == nil {
				ref[k] = &refRec{}
			}
			row := tab.Row(table, db.Tables[table].Heap.SlotOff(slot))
			mask := uint64(rng.Intn(16))
			switch rng.Intn(4) {
			case 0:
				id, owner := uint64(1+rng.Intn(6)), uint64(1+rng.Intn(4))
				row.Acquire(uint32(owner), id, mask, mask)
				ref[k].lock(id, mask, owner)
			case 1:
				if owner := uint64(1 + rng.Intn(4)); ref[k].holds(owner) {
					row.Release(uint32(owner))
					ref[k].unlock(owner)
				}
			case 2:
				e := updEntry{version: uint64(rng.Intn(40)), id: uint64(rng.Intn(8)), cells: mask}
				row.Update(e.version, e.id, e.cells)
				ref[k].update(e)
			}
			if got, want := row.HolderOf(mask), ref[k].holderOf(mask); got != want {
				t.Fatalf("seed %d op %d: HolderOf(%d, %d, %#b) = %d, want %d", seed, op, table, slot, mask, got, want)
			}
			since := uint64(rng.Intn(40))
			if got, want := row.UpdaterSince(since), ref[k].updaterSince(since); got != want {
				t.Fatalf("seed %d op %d: UpdaterSince(%d, %d, %d) = %d, want %d", seed, op, table, slot, since, got, want)
			}
		}
	}
}
