package engine

import (
	"crest/internal/layout"
	"crest/internal/memnode"
)

// ConflictTracker is a partition's contention table: per record, the
// live lock holdings and the latest committed updates, each with its
// transaction. The strict driver classifies an abort as a false conflict
// (Fig 3 of the paper) when HolderCells or ChangedSince misses its own
// cells, and Observers names a conflict's holder or updater to the why
// recorder (HolderOf, UpdaterSince). The strict driver always feeds the
// table, full CREST only for the why recorder (none of its conflicts is
// false); feeding is host-side, and protocol code never reads it. A
// holding lasts until its unlock completes, and a release ends one
// owner's holdings only: a lock won while another unlock is in flight
// keeps its holder. Rows are found by heap slot through a dense uint32
// directory per table and hold no pointer: two holdings and two updates
// inline, the rest in the table's spills and ring slab.
type ConflictTracker struct {
	tables map[layout.TableID]*Table // the database's tables, for their heaps
	dirs   map[layout.TableID]*recDir
	rows   slab[recRow]
	rings  slab[ringTail]
	spills [][]holding // the holdings past a row's second
	owners uint32      // the last owner Acquire named
}

// NewConflictTracker returns an empty table over a DB's Tables, which
// may still gain tables.
func NewConflictTracker(tables map[layout.TableID]*Table) *ConflictTracker {
	return &ConflictTracker{tables: tables, dirs: map[layout.TableID]*recDir{}}
}

// recDir is one table's directory: per heap slot, 1 + the index of the
// record's row, 0 before the record's first event.
type recDir struct {
	heap  *memnode.Heap
	slots []uint32
}

// Row returns the row of table's record at heap offset off, creating it
// at the record's first event.
func (c *ConflictTracker) Row(table layout.TableID, off uint64) Row {
	d := c.dirs[table]
	if d == nil {
		heap := c.tables[table].Heap
		d = &recDir{heap: heap, slots: make([]uint32, heap.Count)}
		c.dirs[table] = d
	}
	slot := d.heap.SlotOf(off)
	if d.slots[slot] == 0 {
		d.slots[slot] = c.rows.add() + 1
	}
	return Row{c, c.rows.at(d.slots[slot] - 1)}
}

// holding is one live lock holding.
type holding struct {
	owner uint32 // what releases it
	id    uint64 // the holder's why id, 0 when the why recorder is off
	cells uint64 // the cells the holder's op covers
	lock  uint64 // the lock bits it holds, 0 = the record's lock word
}

// update is one committed update.
type update struct {
	version uint64
	id      uint64 // the writer's why id, 0 when unknown
	cells   uint64
}

// historyLen bounds a record's update ring. A validation failure
// against an older version counts as a true conflict, unattributed.
const historyLen = 16

// ringTail is slots 2..15 of a row's update ring.
type ringTail [historyLen - 2]update

// recRow is one record's row: the first two holdings and ring slots
// inline, a third holding spilling the list's rest into spills[spill-1]
// and a third update taking slots 2..15 from the ring slab (ring-1).
type recRow struct {
	hold  [2]holding
	upd   [2]update
	nHold uint32 // live holdings, oldest first: hold, then the spill
	spill uint32
	ring  uint32
	nUpd  uint8 // recorded updates, at most historyLen
	pos   uint8 // next slot to overwrite once the ring is full
}

// slabShift sizes a slab's chunks: 1<<slabShift elements each.
const slabShift = 8

// slab is append-only storage addressed by index, in chunks, so that an
// element never moves and costs an allocation only once a chunk.
type slab[T any] struct {
	chunks [][]T
	n      uint32
}

// add appends a zero element and returns its index.
func (s *slab[T]) add() uint32 {
	if s.n&(1<<slabShift-1) == 0 {
		s.chunks = append(s.chunks, make([]T, 1<<slabShift))
	}
	s.n++
	return s.n - 1
}

// at returns element i.
func (s *slab[T]) at(i uint32) *T { return &s.chunks[i>>slabShift][i&(1<<slabShift-1)] }

// Row is one record's row, as ConflictTracker.Row returns it.
type Row struct {
	c   *ConflictTracker
	row *recRow
}

// holding returns the row's i-th live holding, oldest first.
func (r Row) holding(i uint32) *holding {
	if i < uint32(len(r.row.hold)) {
		return &r.row.hold[i]
	}
	return &r.c.spills[r.row.spill-1][i-uint32(len(r.row.hold))]
}

// Acquire records that owner's transaction, why id id, covers cells and
// holds the lock bits lock, and returns owner (a new one for 0). A record
// may have several holdings: +Cell's cell locks, an unlock in flight.
func (r Row) Acquire(owner uint32, id, cells, lock uint64) uint32 {
	for owner == 0 { // 0 is no owner, also when the count wraps
		r.c.owners++
		owner = r.c.owners
	}
	row, h := r.row, holding{owner: owner, id: id, cells: cells, lock: lock}
	if row.nHold < uint32(len(row.hold)) {
		row.hold[row.nHold] = h
	} else {
		if row.spill == 0 {
			r.c.spills = append(r.c.spills, nil)
			row.spill = uint32(len(r.c.spills))
		}
		r.c.spills[row.spill-1] = append(r.c.spills[row.spill-1], h)
	}
	row.nHold++
	return owner
}

// Release ends owner's holdings once their unlock has completed; the
// rest keep their order. Ending none panics.
func (r Row) Release(owner uint32) {
	row := r.row
	kept := uint32(0)
	for i := uint32(0); i < row.nHold; i++ {
		if h := *r.holding(i); h.owner != owner {
			*r.holding(kept) = h
			kept++
		}
	}
	if kept == row.nHold {
		panic("engine: conflict tracker unlock without lock")
	}
	row.nHold = kept
	if row.spill != 0 { // keep the spill's array for the next third holding
		r.c.spills[row.spill-1] = r.c.spills[row.spill-1][:max(kept, 2)-2]
	}
}

// HolderCells reports the cells the live holders cover.
func (r Row) HolderCells() uint64 {
	var cells uint64
	for i := uint32(0); i < r.row.nHold; i++ {
		cells |= r.holding(i).cells
	}
	return cells
}

// HolderOf returns the why id of the oldest live holder whose lock
// bits overlap lock (any holder when either is 0, the record's lock
// word); 0 when none is.
func (r Row) HolderOf(lock uint64) uint64 {
	for i := uint32(0); i < r.row.nHold; i++ {
		if h := r.holding(i); lock == 0 || h.lock == 0 || h.lock&lock != 0 {
			return h.id
		}
	}
	return 0
}

// Update records that the transaction with why id id (0: unknown)
// committed version over cells.
func (r Row) Update(version, id, cells uint64) {
	row := r.row
	slot := row.nUpd
	if row.nUpd < historyLen {
		row.nUpd++
	} else {
		slot = row.pos
		row.pos = (row.pos + 1) % historyLen
	}
	if int(slot) >= len(row.upd) && row.ring == 0 {
		row.ring = r.c.rings.add() + 1
	}
	*r.update(slot) = update{version: version, id: id, cells: cells}
}

// update returns the row's update slot i.
func (r Row) update(i uint8) *update {
	if int(i) < len(r.row.upd) {
		return &r.row.upd[i]
	}
	return &r.c.rings.at(r.row.ring - 1)[int(i)-len(r.row.upd)]
}

// ChangedSince returns the union of cells changed by updates with
// version > since. If the ring no longer covers since, it returns the
// all-ones mask (conservatively a true conflict).
func (r Row) ChangedSince(since uint64) uint64 {
	// pos is 0 until the ring is full, so it always names the oldest.
	if r.row.nUpd > 0 && r.update(r.row.pos).version > since+1 {
		return ^uint64(0)
	}
	var cells uint64
	for i := uint8(0); i < r.row.nUpd; i++ {
		if u := r.update(i); u.version > since {
			cells |= u.cells
		}
	}
	return cells
}

// UpdaterSince returns the why id of the newest known writer past since
// (the later slot among equal versions), 0 when the ring holds none.
func (r Row) UpdaterSince(since uint64) uint64 {
	var best, bestVer uint64
	for i := uint8(0); i < r.row.nUpd; i++ {
		if u := r.update(i); u.version > since && u.version >= bestVer && u.id != 0 {
			best, bestVer = u.id, u.version
		}
	}
	return best
}

// IsFalseConflict reports whether an abort caused by conflictingCells
// is a false conflict for a transaction that accessed myCells: the
// record is shared but the cell sets are disjoint. An empty
// conflictingCells (no holder, no newer update) is never false.
func IsFalseConflict(myCells, conflictingCells uint64) bool {
	return conflictingCells != 0 && myCells&conflictingCells == 0
}
