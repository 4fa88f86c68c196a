package engine

import (
	"math/bits"
	"math/rand"
	"testing"

	"crest/internal/layout"
)

// newRecConflict is the first state of a tracker of its own.
func newRecConflict() *RecConflict { return new(ConflictTracker).newRecConflict() }

// TestChangedSinceInsideWindowReportsExactCells: a validation failure
// against a version the 16-entry ring still covers gets the exact
// changed-cell union, so a disjoint cell set classifies as a false
// conflict.
func TestChangedSinceInsideWindowReportsExactCells(t *testing.T) {
	c := newRecConflict()
	for v := uint64(1); v <= conflictHistoryLen; v++ {
		c.OnUpdate(v, 0b0010) // every update touches only cell 1
	}
	got := c.ChangedSince(0)
	if got != 0b0010 {
		t.Fatalf("ChangedSince(0) = %b, want %b", got, 0b0010)
	}
	// A transaction that only touched cell 0 conflicts falsely.
	if !IsFalseConflict(0b0001, got) {
		t.Fatal("disjoint cells inside the window classified as a true conflict")
	}
	if IsFalseConflict(0b0010, got) {
		t.Fatal("overlapping cells classified as a false conflict")
	}
}

// TestChangedSinceOlderThanRingIsConservative is the boundary the
// causality recorder mirrors: once the reader's version has aged out
// of the per-record update ring, the tracker can no longer prove the
// changed cells were disjoint, so it must answer all-ones — a
// conservative true conflict — even for a transaction whose own cells
// were never touched.
func TestChangedSinceOlderThanRingIsConservative(t *testing.T) {
	c := newRecConflict()
	// 20 single-cell updates: the ring keeps versions 5..20, so the
	// oldest surviving entry is version 5.
	for v := uint64(1); v <= 20; v++ {
		c.OnUpdate(v, 0b0010)
	}

	// since = 4 is the last version the window still covers (the ring's
	// oldest entry, version 5, is since+1): the answer stays exact.
	if got := c.ChangedSince(4); got != 0b0010 {
		t.Fatalf("ChangedSince(4) = %b, want exact %b", got, 0b0010)
	}
	// since = 3 predates the window: updates between 3 and 5 are
	// unknown, so every cell must be assumed changed.
	got := c.ChangedSince(3)
	if got != ^uint64(0) {
		t.Fatalf("ChangedSince(3) = %b, want all-ones", got)
	}
	// The disjoint-cell transaction that was a false conflict inside
	// the window is now, conservatively, a true conflict.
	if IsFalseConflict(0b0001, got) {
		t.Fatal("aged-out validation classified as a false conflict; must be conservatively true")
	}
}

// TestHolderCellsTracksSharedCoverage: per-cell counting keeps a cell
// covered while any holder remains (CREST compute nodes share remote
// locks locally).
func TestHolderCellsTracksSharedCoverage(t *testing.T) {
	c := newRecConflict()
	c.OnLock(0b011)
	c.OnLock(0b010) // second holder shares cell 1
	if got := c.HolderCells(); got != 0b011 {
		t.Fatalf("HolderCells = %b, want %b", got, 0b011)
	}
	c.OnUnlock(0b010)
	if got := c.HolderCells(); got != 0b011 {
		t.Fatalf("cell 1 dropped while a holder remains: %b", got)
	}
	c.OnUnlock(0b011)
	if got := c.HolderCells(); got != 0 {
		t.Fatalf("HolderCells after full unlock = %b, want 0", got)
	}
}

// refConflict is the tracker state as it was before RecConflict — a
// per-cell holder count and an update slice that drops its head past
// conflictHistoryLen — kept here as the reference the property test
// compares against.
type refConflict struct {
	holders [64]int
	updates []update
}

func (r *refConflict) OnLock(cells uint64) {
	for m := cells; m != 0; m &= m - 1 {
		r.holders[bits.TrailingZeros64(m)]++
	}
}

func (r *refConflict) OnUnlock(cells uint64) {
	for m := cells; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if r.holders[b] == 0 {
			panic("engine: conflict tracker unlock without lock")
		}
		r.holders[b]--
	}
}

func (r *refConflict) HolderCells() uint64 {
	var mask uint64
	for b, n := range r.holders {
		if n > 0 {
			mask |= 1 << uint(b)
		}
	}
	return mask
}

func (r *refConflict) OnUpdate(version, cells uint64) {
	r.updates = append(r.updates, update{version: version, cells: cells})
	if len(r.updates) > conflictHistoryLen {
		r.updates = r.updates[1:]
	}
}

func (r *refConflict) ChangedSince(since uint64) uint64 {
	if len(r.updates) > 0 && r.updates[0].version > since+1 {
		return ^uint64(0)
	}
	var cells uint64
	for _, u := range r.updates {
		if u.version > since {
			cells |= u.cells
		}
	}
	return cells
}

// TestRecConflictMatchesReference drives random lock / unlock / update
// sequences through RecConflict and through the reference and holds
// their answers equal after every step. Unlocks are drawn from the live
// masks — the pairing contract of OnUnlock, which every caller keeps;
// the reference would also take an unlock that no single lock supplied
// as long as each of its cells is covered, and no caller does that.
func TestRecConflictMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := newRecConflict(), &refConflict{}
		var live []uint64
		version := uint64(0)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				m := rng.Uint64() >> uint(rng.Intn(64)) // any width, the empty mask too
				live = append(live, m)
				got.OnLock(m)
				want.OnLock(m)
			case op < 6 && len(live) > 0:
				i := rng.Intn(len(live))
				m := live[i]
				live = append(live[:i], live[i+1:]...)
				got.OnUnlock(m)
				want.OnUnlock(m)
			case op < 9:
				version += uint64(1 + rng.Intn(3)) // gaps, so since+1 misses some versions
				cells := uint64(1) << uint(rng.Intn(8))
				got.OnUpdate(version, cells)
				want.OnUpdate(version, cells)
			}
			if g, w := got.HolderCells(), want.HolderCells(); g != w {
				t.Fatalf("seed %d step %d: HolderCells = %b, reference %b", seed, step, g, w)
			}
			// Both ends, around the ring's oldest entry, and anywhere.
			sinces := []uint64{0, version, version + 1, uint64(rng.Int63n(int64(version) + 2))}
			for _, back := range []uint64{1, 15, 16, 17, 40} {
				sinces = append(sinces, version-min(back, version))
			}
			for _, since := range sinces {
				if g, w := got.ChangedSince(since), want.ChangedSince(since); g != w {
					t.Fatalf("seed %d step %d: ChangedSince(%d) = %b, reference %b", seed, step, since, g, w)
				}
			}
		}
	}
}

// TestRecConflictRingBoundaries walks the update ring over its edges:
// the 16th update fills it, the 17th evicts the first, the 33rd has
// gone round twice — each time the oldest surviving version v answers
// since = v-1 exactly and since = v-2 conservatively (the boundary
// causality's TestUpdaterRingAgesOut mirrors).
func TestRecConflictRingBoundaries(t *testing.T) {
	r := newRecConflict()
	for v := uint64(1); v <= 2*conflictHistoryLen+1; v++ {
		r.OnUpdate(v, 1<<(v%4))
		if v != conflictHistoryLen && v != conflictHistoryLen+1 && v != 2*conflictHistoryLen+1 {
			continue
		}
		oldest := uint64(1)
		if v > conflictHistoryLen {
			oldest = v - conflictHistoryLen + 1
		}
		var all uint64
		for u := oldest; u <= v; u++ {
			all |= 1 << (u % 4)
		}
		if got := r.ChangedSince(oldest - 1); got != all {
			t.Fatalf("after %d updates: ChangedSince(%d) = %b, want exact %b", v, oldest-1, got, all)
		}
		if got := r.ChangedSince(v - 1); got != 1<<(v%4) {
			t.Fatalf("after %d updates: ChangedSince(%d) = %b, want only the newest", v, v-1, got)
		}
		if oldest >= 2 {
			if got := r.ChangedSince(oldest - 2); got != ^uint64(0) {
				t.Fatalf("after %d updates: ChangedSince(%d) = %b, want all-ones", v, oldest-2, got)
			}
		}
		if cap(r.updates) != conflictHistoryLen {
			t.Fatalf("after %d updates the ring holds %d entries of storage, want %d for good", v, cap(r.updates), conflictHistoryLen)
		}
	}
}

// TestRecConflictSteadyStateAllocatesNothing: once a record has its
// ring and its holder list, events cost no allocation — the old update
// slice shed capacity at every eviction and re-grew every 16 updates.
func TestRecConflictSteadyStateAllocatesNothing(t *testing.T) {
	r := newRecConflict()
	for v := uint64(1); v <= conflictHistoryLen; v++ {
		r.OnUpdate(v, 1)
	}
	v := uint64(conflictHistoryLen)
	if got := testing.AllocsPerRun(100, func() {
		r.OnLock(0b01)
		r.OnLock(0b11)
		v++
		r.OnUpdate(v, 1)
		r.OnUnlock(0b01)
		r.OnUnlock(0b11)
	}); got != 0 {
		t.Fatalf("%v allocations per lock/update/unlock round, want 0", got)
	}
}

// TestConflictTrackerAddressesRecordsBySlot: a record's state is found
// by table and heap offset — one handle per record for the tracker's
// life, whoever asks, including for a table created after the tracker
// and a row in the last slot.
func TestConflictTrackerAddressesRecordsBySlot(t *testing.T) {
	_, db := newTestDB(t)
	a := db.CreateTable(testSchema(), 64, 8)
	b := db.CreateTable(layout.Schema{ID: 9, Name: "u", CellSizes: []int{8}}, 64, 4)
	first, last := a.Heap.SlotOff(0), a.Heap.SlotOff(7)
	r := db.Tracker.Rec(7, first)
	r.OnLock(0b01)
	if db.Tracker.Rec(7, first) != r {
		t.Fatal("second lookup of a record returned another state")
	}
	if other := db.Tracker.Rec(7, last); other == r || other.HolderCells() != 0 {
		t.Fatal("two rows of one table share a state")
	}
	if other := db.Tracker.Rec(9, b.Heap.SlotOff(0)); other == r || other.HolderCells() != 0 {
		t.Fatal("rows of two tables share a state")
	}
	if got := db.Tracker.Rec(7, first).HolderCells(); got != 0b01 {
		t.Fatalf("HolderCells = %b after the other lookups, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an offset outside the table's heap")
		}
	}()
	db.Tracker.Rec(9, last)
}

// BenchmarkConflictTrackerRecord is what one written record of one
// strict attempt costs the classifier: find the state, cover the
// record, record the update, uncover it — over a table's rows in turn.
func BenchmarkConflictTrackerRecord(b *testing.B) {
	_, db := newTestDB(b)
	const rows = 1024
	tab := db.CreateTable(testSchema(), 64, rows)
	for i := 0; i < rows; i++ { // every row's state exists, with its ring
		r := db.Tracker.Rec(7, tab.Heap.SlotOff(i))
		for v := uint64(1); v <= conflictHistoryLen; v++ {
			r.OnUpdate(v, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := db.Tracker.Rec(7, tab.Heap.SlotOff(i%rows))
		r.OnLock(0b11)
		r.OnUpdate(uint64(i), 0b01)
		r.OnUnlock(0b11)
	}
}

// TestRecCutsStatesFromSlabs: the states of 1 000 records seen for the
// first time cost the slabs they are cut from (8 of 128), not an object
// each; and a record updated past its inline room takes its ring from
// the tracker's ring slab, 64 rings to an allocation.
func TestRecCutsStatesFromSlabs(t *testing.T) {
	_, db := newTestDB(t)
	const fresh, runs = 1000, 3
	tab := db.CreateTable(testSchema(), 64, fresh*(runs+1)+1)
	db.Tracker.Rec(7, tab.Heap.SlotOff(0)) // the table's slot directory
	slot := 1
	got := testing.AllocsPerRun(runs, func() {
		for i := 0; i < fresh; i++ {
			db.Tracker.Rec(7, tab.Heap.SlotOff(slot)).OnLock(1)
			slot++
		}
	})
	t.Logf("%.0f allocs per %d fresh records", got, fresh)
	if got > 10 {
		t.Errorf("%.0f allocs for %d fresh records, want at most 10", got, fresh)
	}
	slot = 1
	got = testing.AllocsPerRun(runs, func() {
		for i := 0; i < fresh; i++ {
			r := db.Tracker.Rec(7, tab.Heap.SlotOff(slot))
			for v := uint64(1); v <= 3; v++ { // one past the inline two
				r.OnUpdate(v, 1)
			}
			slot++
		}
	})
	t.Logf("%.0f allocs per %d rings", got, fresh)
	if got > fresh/ringSlab+1 {
		t.Errorf("%.0f allocs for %d records growing a ring, want at most %d", got, fresh, fresh/ringSlab+1)
	}
}

// BenchmarkTrackerRec is a record's first event: its state is cut, it
// is covered, updated past the inline room (so it takes a ring) and
// uncovered — what every inserted row of a NewOrder costs.
func BenchmarkTrackerRec(b *testing.B) {
	_, db := newTestDB(b)
	const rows = 4096
	tab := db.CreateTable(testSchema(), 64, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%rows == 0 {
			b.StopTimer()
			db.Tracker = NewConflictTracker(db.Tables)
			b.StartTimer()
		}
		r := db.Tracker.Rec(7, tab.Heap.SlotOff(i%rows))
		r.OnLock(0b11)
		for v := uint64(1); v <= 3; v++ {
			r.OnUpdate(v, 0b01)
		}
		r.OnUnlock(0b11)
	}
}
