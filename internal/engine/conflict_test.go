package engine

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"crest/internal/causality"
	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/trace"
)

// newRow is the first row of a table of its own.
func newRow() Row {
	c := NewConflictTracker(nil)
	return Row{c, c.rows.at(c.rows.add())}
}

// TestChangedSinceInsideWindowReportsExactCells: a validation failure
// against a version the 16-entry ring still covers gets the exact
// changed-cell union, so a disjoint cell set classifies as a false
// conflict.
func TestChangedSinceInsideWindowReportsExactCells(t *testing.T) {
	r := newRow()
	for v := uint64(1); v <= historyLen; v++ {
		r.Update(v, 0, 0b0010) // every update touches only cell 1
	}
	got := r.ChangedSince(0)
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

// TestChangedSinceOlderThanRingIsConservative: once the reader's
// version has aged out of the per-record update ring, the table can no
// longer prove the changed cells were disjoint, so it must answer
// all-ones — a conservative true conflict — even for a transaction
// whose own cells were never touched.
func TestChangedSinceOlderThanRingIsConservative(t *testing.T) {
	r := newRow()
	// 20 single-cell updates: the ring keeps versions 5..20, so the
	// oldest surviving entry is version 5.
	for v := uint64(1); v <= 20; v++ {
		r.Update(v, 0, 0b0010)
	}

	// since = 4 is the last version the window still covers (the ring's
	// oldest entry, version 5, is since+1): the answer stays exact.
	if got := r.ChangedSince(4); got != 0b0010 {
		t.Fatalf("ChangedSince(4) = %b, want exact %b", got, 0b0010)
	}
	// since = 3 predates the window: updates between 3 and 5 are
	// unknown, so every cell must be assumed changed.
	got := r.ChangedSince(3)
	if got != ^uint64(0) {
		t.Fatalf("ChangedSince(3) = %b, want all-ones", got)
	}
	// The disjoint-cell transaction that was a false conflict inside
	// the window is now, conservatively, a true conflict.
	if IsFalseConflict(0b0001, got) {
		t.Fatal("aged-out validation classified as a false conflict; must be conservatively true")
	}
}

// TestHolderCellsTracksSharedCoverage: a cell stays covered while any
// holder of it remains (CREST's +Cell holders share records).
func TestHolderCellsTracksSharedCoverage(t *testing.T) {
	r := newRow()
	r.Acquire(1, 0, 0b011, 0b011)
	r.Acquire(2, 0, 0b010, 0b010) // second holder shares cell 1
	if got := r.HolderCells(); got != 0b011 {
		t.Fatalf("HolderCells = %b, want %b", got, 0b011)
	}
	r.Release(2)
	if got := r.HolderCells(); got != 0b011 {
		t.Fatalf("cell 1 dropped while a holder remains: %b", got)
	}
	r.Release(1)
	if got := r.HolderCells(); got != 0 {
		t.Fatalf("HolderCells after full unlock = %b, want 0", got)
	}
}

// TestHolderAttributionMaskSemantics: the why recorder's holder is the
// oldest live holder whose lock bits overlap the lost ones; a release
// ends its owner's holdings and no other, so a holding taken while an
// unlock was in flight survives that unlock's completion.
func TestHolderAttributionMaskSemantics(t *testing.T) {
	r := newRow()
	r.Acquire(1, 101, 0b011, 0b011)
	r.Acquire(2, 102, 0b100, 0b100)
	for _, tc := range []struct{ lock, want uint64 }{
		{0b010, 101}, {0b100, 102}, {0b1000, 0},
		{0, 101}, // the record's lock word: any holder, the oldest
	} {
		if got := r.HolderOf(tc.lock); got != tc.want {
			t.Fatalf("HolderOf(%b) = %d, want %d", tc.lock, got, tc.want)
		}
	}
	r.Acquire(3, 103, 0b011, 0b011) // won while owner 1's unlock was in flight
	r.Release(1)
	if got := r.HolderOf(0b010); got != 103 {
		t.Fatalf("HolderOf(cell 1) after owner 1's unlock = %d, want 103", got)
	}
	if got := r.HolderOf(0b100); got != 102 {
		t.Fatalf("owner 1's unlock dropped another holder: %d", got)
	}
	r.Release(3)
	if got := r.HolderOf(0b011); got != 0 {
		t.Fatalf("holder survived its unlock: %d", got)
	}
	// A holding of the lock word (0) matches every query.
	r.Acquire(4, 104, 0b1, 0)
	if got := r.HolderOf(0b1000); got != 104 {
		t.Fatalf("record-level holding missed: %d", got)
	}
}

// TestUpdaterRingAgesOut: a validation failure against a version still
// inside the 16-update window names the newest updater past it; one
// that nothing newer covers is unattributed (0), and unknown writers
// (id 0) are never named.
func TestUpdaterRingAgesOut(t *testing.T) {
	r, anon := newRow(), newRow()
	for v := uint64(1); v <= 20; v++ {
		r.Update(v, 100+v, 0b1)
		// The 16 newest writers of the other record are unknown: its
		// four known ones have aged out.
		id := uint64(0)
		if v <= 4 {
			id = 100 + v
		}
		anon.Update(v, id, 0b1)
	}
	for _, since := range []uint64{0, 3, 10, 19} {
		if got := r.UpdaterSince(since); got != 120 {
			t.Errorf("updater past v%d = %d, want the newest, 120", since, got)
		}
		if got := anon.UpdaterSince(since); got != 0 {
			t.Errorf("updater past v%d = %d, want 0: every known updater aged out", since, got)
		}
	}
	if got := r.UpdaterSince(20); got != 0 {
		t.Errorf("updater past v20 = %d, want 0", got)
	}
	// Equal versions: the later slot wins.
	tie := newRow()
	tie.Update(5, 7, 0b1)
	tie.Update(5, 8, 0b10)
	if got := tie.UpdaterSince(4); got != 8 {
		t.Errorf("updater among equal versions = %d, want the later, 8", got)
	}
}

// TestRecConflictMatchesReference drives the contention table and the
// two tables it replaced (contention_ref_test.go) through the same
// random acquisitions, releases and updates on a few records of two
// tables — several holdings per owner, as a compute node's object has,
// up to a dozen at once, so a row spills, and versions that repeat and
// skip — and holds every answer equal after every step: the tracker's
// HolderCells and ChangedSince, the why recorder's holder and updater.
func TestRecConflictMatchesReference(t *testing.T) {
	_, db := newTestDB(t)
	db.CreateTable(testSchema(), 64, 4)
	db.CreateTable(layout.Schema{ID: 9, Name: "u", CellSizes: []int{8}}, 64, 4)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := NewConflictTracker(db.Tables)
		tracker, why := newRefTracker(db.Tables), &refRecorder{}
		type held struct{ cells []uint64 }
		live := map[[2]uint64]map[uint64]*held{} // record -> owner -> its holdings' cells
		owners := uint64(0)
		version := uint64(0)
		for step := 0; step < 3000; step++ {
			table := layout.TableID([]int{7, 9}[rng.Intn(2)])
			slot := rng.Intn(4)
			off := db.Tables[table].Heap.SlotOff(slot)
			key := layout.Key(slot)
			k := [2]uint64{uint64(table), uint64(slot)}
			if live[k] == nil {
				live[k] = map[uint64]*held{}
			}
			row, rec := got.Row(table, off), tracker.Rec(table, off)
			mask := uint64(rng.Intn(16))
			switch op := rng.Intn(10); {
			case op < 4:
				owner := uint64(0)
				if rng.Intn(3) == 0 && len(live[k]) > 0 {
					for o := range live[k] { // another holding of a live owner
						owner = max(owner, o)
					}
				} else {
					owners++
					owner = owners
					live[k][owner] = &held{}
				}
				id, cells := uint64(rng.Intn(6)), uint64(rng.Intn(16))
				row.Acquire(uint32(owner), id, cells, mask)
				rec.OnLock(cells)
				why.OnLock(&causality.Txn{ID: id}, table, key, mask, owner)
				live[k][owner].cells = append(live[k][owner].cells, cells)
			case op < 7 && len(live[k]) > 0:
				owner := uint64(0)
				for o := range live[k] {
					owner = max(owner, o) // the newest, or...
				}
				if rng.Intn(2) == 0 {
					for o := range live[k] {
						owner = min(owner, o) // ...the oldest
					}
				}
				row.Release(uint32(owner))
				for _, cells := range live[k][owner].cells {
					rec.OnUnlock(cells)
				}
				why.OnUnlock(table, key, owner)
				delete(live[k], owner)
			default:
				version += uint64(rng.Intn(3)) // repeats, and gaps so since+1 misses some versions
				id := uint64(rng.Intn(8))
				row.Update(version, id, mask)
				rec.OnUpdate(version, mask)
				why.OnUpdate(id, table, key, version, mask)
			}
			if g, w := row.HolderCells(), rec.HolderCells(); g != w {
				t.Fatalf("seed %d step %d: HolderCells = %b, reference %b", seed, step, g, w)
			}
			for q := uint64(0); q < 16; q++ {
				if g, w := row.HolderOf(q), why.holderOf(why.lookup(table, key), q); g != w {
					t.Fatalf("seed %d step %d: HolderOf(%b) = %d, reference %d", seed, step, q, g, w)
				}
			}
			sinces := []uint64{0, version, version + 1, uint64(rng.Int63n(int64(version) + 2))}
			for _, back := range []uint64{1, 2, 15, 16, 17, 40} {
				sinces = append(sinces, version-min(back, version))
			}
			for _, since := range sinces {
				if g, w := row.ChangedSince(since), rec.ChangedSince(since); g != w {
					t.Fatalf("seed %d step %d: ChangedSince(%d) = %b, reference %b", seed, step, since, g, w)
				}
				if g, w := row.UpdaterSince(since), why.updaterSince(why.lookup(table, key), since); g != w {
					t.Fatalf("seed %d step %d: UpdaterSince(%d) = %d, reference %d", seed, step, since, g, w)
				}
			}
		}
	}
}

// TestRecConflictRingBoundaries walks the update ring over its edges:
// the 16th update fills it, the 17th evicts the first, the 33rd has
// gone round twice — each time the oldest surviving version v answers
// since = v-1 exactly and since = v-2 conservatively. (RecConflict was
// the tracker's per-record state before the contention table.)
func TestRecConflictRingBoundaries(t *testing.T) {
	r := newRow()
	for v := uint64(1); v <= 2*historyLen+1; v++ {
		r.Update(v, v, 1<<(v%4))
		if v != historyLen && v != historyLen+1 && v != 2*historyLen+1 {
			continue
		}
		oldest := uint64(1)
		if v > historyLen {
			oldest = v - historyLen + 1
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
		if r.c.rings.n != 1 {
			t.Fatalf("after %d updates the row has taken %d rings, want 1 for good", v, r.c.rings.n)
		}
	}
}

// TestRecConflictSteadyStateAllocatesNothing: once a record has its
// ring and its spill, events cost no allocation.
func TestRecConflictSteadyStateAllocatesNothing(t *testing.T) {
	r := newRow()
	for v := uint64(1); v <= historyLen; v++ {
		r.Update(v, v, 1)
	}
	for o := uint32(1); o <= 3; o++ {
		r.Acquire(o, uint64(o), 1, 1)
	}
	for o := uint32(1); o <= 3; o++ {
		r.Release(o)
	}
	v := uint64(historyLen)
	if got := testing.AllocsPerRun(100, func() {
		r.Acquire(1, 1, 0b01, 0b01)
		r.Acquire(2, 2, 0b11, 0b10)
		r.Acquire(3, 3, 0b100, 0b100)
		v++
		r.Update(v, 2, 1)
		r.HolderOf(0b10)
		r.UpdaterSince(v - 3)
		r.Release(1)
		r.Release(2)
		r.Release(3)
	}); got != 0 {
		t.Fatalf("%v allocations per lock/update/unlock round, want 0", got)
	}
}

// TestConflictTrackerAddressesRecordsBySlot: a record's row is found
// by table and heap offset — one row per record for the table's life,
// whoever asks, including for a table created after the tracker and a
// row in the last slot.
func TestConflictTrackerAddressesRecordsBySlot(t *testing.T) {
	_, db := newTestDB(t)
	a := db.CreateTable(testSchema(), 64, 8)
	b := db.CreateTable(layout.Schema{ID: 9, Name: "u", CellSizes: []int{8}}, 64, 4)
	first, last := a.Heap.SlotOff(0), a.Heap.SlotOff(7)
	r := db.Tracker.Row(7, first)
	r.Acquire(1, 0, 0b01, 0b01)
	if db.Tracker.Row(7, first) != r {
		t.Fatal("second lookup of a record returned another row")
	}
	if other := db.Tracker.Row(7, last); other == r || other.HolderCells() != 0 {
		t.Fatal("two rows of one table share a row")
	}
	if other := db.Tracker.Row(9, b.Heap.SlotOff(0)); other == r || other.HolderCells() != 0 {
		t.Fatal("rows of two tables share a row")
	}
	if got := db.Tracker.Row(7, first).HolderCells(); got != 0b01 {
		t.Fatalf("HolderCells = %b after the other lookups, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an offset outside the table's heap")
		}
	}()
	db.Tracker.Row(9, last)
}

// BenchmarkConflictTrackerRecord is what one written record of one
// strict attempt costs the table: find the row, cover the record,
// record the update, uncover it — over a table's rows in turn.
func BenchmarkConflictTrackerRecord(b *testing.B) {
	_, db := newTestDB(b)
	const rows = 1024
	tab := db.CreateTable(testSchema(), 64, rows)
	for i := 0; i < rows; i++ { // every row exists, with its ring
		r := db.Tracker.Row(7, tab.Heap.SlotOff(i))
		for v := uint64(1); v <= historyLen; v++ {
			r.Update(v, v, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := db.Tracker.Row(7, tab.Heap.SlotOff(i%rows))
		r.Acquire(1, 1, 0b11, 0b11)
		r.Update(uint64(i), 1, 0b01)
		r.Release(1)
	}
}

// TestRecCutsStatesFromSlabs: the rows of 1 000 records seen for the
// first time cost the chunks they are cut from (4 of 256), not an
// object each; and a record updated past its inline room takes its
// ring from the ring slab, 256 rings to an allocation.
func TestRecCutsStatesFromSlabs(t *testing.T) {
	_, db := newTestDB(t)
	const fresh, runs = 1000, 3
	tab := db.CreateTable(testSchema(), 64, fresh*(runs+1)+1)
	db.Tracker.Row(7, tab.Heap.SlotOff(0)) // the table's slot directory
	slot := 1
	got := testing.AllocsPerRun(runs, func() {
		for i := 0; i < fresh; i++ {
			db.Tracker.Row(7, tab.Heap.SlotOff(slot)).Acquire(1, 0, 1, 1)
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
			r := db.Tracker.Row(7, tab.Heap.SlotOff(slot))
			for v := uint64(1); v <= 3; v++ { // one past the inline two
				r.Update(v, 0, 1)
			}
			slot++
		}
	})
	t.Logf("%.0f allocs per %d rings", got, fresh)
	if want := float64(fresh>>slabShift + 2); got > want {
		t.Errorf("%.0f allocs for %d records growing a ring, want at most %.0f", got, fresh, want)
	}
}

// TestContentionTableAllocs: the table and the why recorder grow by
// slabs, not by transactions or records. 10 000 transactions that each
// lock, update and unlock one of 1 000 records allocate the why
// recorder's node slabs, the table's directory and its chunks (rows,
// and rings for records updated three times or more) and the node
// ring's storage: within tableAllocs, against more than 12 000 while
// every node and record state was an object of its own.
func TestContentionTableAllocs(t *testing.T) {
	const txns, records = 10000, 1000
	_, db := newTestDB(t)
	tab := db.CreateTable(testSchema(), 64, records)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	why := causality.NewRecorder(causality.Options{Capacity: 64, TxnCapacity: 1024})
	span := trace.Span{Label: "t", Attempt: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < txns; i++ {
		span.ID = uint64(i + 1)
		tx := why.Begin(0, &span)
		r := db.Tracker.Row(7, tab.Heap.SlotOff(i%records))
		owner := r.Acquire(0, tx.ID, 0b1, 0b1)
		r.Update(uint64(i+1), tx.ID, 0b1)
		r.Release(owner)
		why.Commit(sim.Time(i), tx)
	}
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d transactions over %d records: %d allocations", txns, records, got)
	if got > 80 {
		t.Errorf("%d allocations, want at most 80", got)
	}
	if db.Tracker.rows.n != records || db.Tracker.rings.n != records {
		t.Errorf("%d rows and %d rings, want %d of each", db.Tracker.rows.n, db.Tracker.rings.n, records)
	}
}

// TestContentionRowSizeClasses holds a row to the size it was fitted
// to: two holdings and two updates inline, no pointer (unsafe.Sizeof;
// the chunks carry no size-class rounding).
func TestContentionRowSizeClasses(t *testing.T) {
	const limit = 128
	size := unsafe.Sizeof(recRow{})
	t.Logf("recRow: %d bytes; ringTail: %d bytes", size, unsafe.Sizeof(ringTail{}))
	if size > limit {
		t.Errorf("recRow is %d bytes, over its %d-byte budget", size, limit)
	}
}

// BenchmarkTrackerRec is a record's first event: its row is cut, it is
// covered, updated past the inline room (so it takes a ring) and
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
		r := db.Tracker.Row(7, tab.Heap.SlotOff(i%rows))
		r.Acquire(1, 1, 0b11, 0b11)
		for v := uint64(1); v <= 3; v++ {
			r.Update(v, 1, 0b01)
		}
		r.Release(1)
	}
}
