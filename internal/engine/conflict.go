package engine

import (
	"crest/internal/layout"
	"crest/internal/memnode"
)

// ConflictTracker is instrumentation that classifies the strict
// driver's aborts — FORD, Motor and CREST's Base / +Cell variants — as
// true or false conflicts (Fig 3 of the paper). A lost record lock or a
// changed version word does not say which cells the other transaction
// touched, so the driver reports — host-side, at zero virtual cost —
// which cells each lock holder covers and which cells each committed
// update changed; an aborting transaction then asks whether the
// conflicting access overlapped its own cell set. A holding lasts from
// its lock verb's completion to its unlock's, on commit and on abort.
// Full CREST does not feed the tracker: each of its conflicts is on
// cells its own verb named, so none is false.
//
// Protocol code never reads the tracker to make decisions. It only
// hands out each record's state (Rec); the events and the queries are
// methods on that handle, which the driver keeps for the attempt.
type ConflictTracker struct {
	tables map[layout.TableID]*Table // the database's tables, for their heaps
	recs   map[layout.TableID]*tableConflicts
	// States and the rings they grow into are cut from slabs the tracker
	// holds: a state is never freed, so nothing is ever returned, and a
	// tracker belongs to one partition, so nothing is shared.
	states []RecConflict
	rings  []update
}

// Slab sizes: states per slab, rings per slab.
const (
	stateSlab = 128
	ringSlab  = 64
)

// tableConflicts is one table's states by heap slot: 8 bytes a row,
// sized at the table's first event, the states themselves created on a
// record's first.
type tableConflicts struct {
	heap *memnode.Heap
	recs []*RecConflict
}

// NewConflictTracker returns an empty tracker over tables (a DB's
// Tables, which may still gain tables).
func NewConflictTracker(tables map[layout.TableID]*Table) *ConflictTracker {
	return &ConflictTracker{tables: tables, recs: map[layout.TableID]*tableConflicts{}}
}

// Rec returns the state of table's record at heap offset off — the
// record's identity on this path: no key is hashed.
func (c *ConflictTracker) Rec(table layout.TableID, off uint64) *RecConflict {
	t := c.recs[table]
	if t == nil {
		heap := c.tables[table].Heap
		t = &tableConflicts{heap: heap, recs: make([]*RecConflict, heap.Count)}
		c.recs[table] = t
	}
	slot := t.heap.SlotOf(off)
	r := t.recs[slot]
	if r == nil {
		r = c.newRecConflict()
		t.recs[slot] = r
	}
	return r
}

// newRecConflict cuts a state from the current slab.
func (c *ConflictTracker) newRecConflict() *RecConflict {
	if len(c.states) == 0 {
		c.states = make([]RecConflict, stateSlab)
	}
	r := &c.states[0]
	c.states = c.states[1:]
	r.tracker = c
	r.holders = r.holders0[:0]
	r.updates = r.updates0[:0]
	return r
}

// newRing cuts an empty update ring from the current slab.
func (c *ConflictTracker) newRing() []update {
	if len(c.rings) == 0 {
		c.rings = make([]update, ringSlab*conflictHistoryLen)
	}
	ring := c.rings[:0:conflictHistoryLen]
	c.rings = c.rings[conflictHistoryLen:]
	return ring
}

// RecConflict is one record's classification state: the cell coverage
// of its live lock holders and the cells its latest updates changed.
type RecConflict struct {
	tracker *ConflictTracker // whose slabs the state and its ring come from
	// holders is one coverage mask per OnLock not yet undone by its
	// OnUnlock, in no particular order.
	holders []uint64
	// updates is the newest conflictHistoryLen updates: filled in order,
	// then a ring whose oldest entry is at head.
	updates []update
	head    int
	// Room for the common case — a holder or two, a record updated once
	// or twice (every inserted row) — so that it takes no ring.
	holders0 [2]uint64
	updates0 [2]update
}

type update struct {
	version uint64
	cells   uint64
}

// conflictHistoryLen bounds the per-record update ring. A validation
// failure against a version older than the ring conservatively counts
// as a true conflict.
const conflictHistoryLen = 16

// OnLock records that a transaction now covers cells of the record.
// Several transactions may hold one record (+Cell's cell locks), so
// every holder's mask is kept.
func (r *RecConflict) OnLock(cells uint64) {
	r.holders = append(r.holders, cells)
}

// OnUnlock removes one transaction's coverage. The pairing contract:
// cells is exactly the mask one live OnLock supplied — every caller
// unlocks with the mask it locked with — and an unlock that matches no
// live lock panics.
func (r *RecConflict) OnUnlock(cells uint64) {
	for i, m := range r.holders {
		if m == cells {
			last := len(r.holders) - 1
			r.holders[i] = r.holders[last]
			r.holders = r.holders[:last]
			return
		}
	}
	panic("engine: conflict tracker unlock without lock")
}

// HolderCells reports the cells currently covered by lock holders.
func (r *RecConflict) HolderCells() uint64 {
	var mask uint64
	for _, m := range r.holders {
		mask |= m
	}
	return mask
}

// OnUpdate records that a committed update produced version and
// changed cells.
func (r *RecConflict) OnUpdate(version, cells uint64) {
	u := update{version: version, cells: cells}
	switch {
	case len(r.updates) < cap(r.updates):
		r.updates = append(r.updates, u)
	case cap(r.updates) < conflictHistoryLen:
		// Past the inline room: move to the ring's whole storage at once;
		// the record keeps it from here on.
		r.updates = append(append(r.tracker.newRing(), r.updates...), u)
	default:
		r.updates[r.head] = u
		r.head = (r.head + 1) % conflictHistoryLen
	}
}

// ChangedSince returns the union of cells changed by updates with
// version > since. If the ring no longer covers since, it returns the
// all-ones mask (conservatively a true conflict).
func (r *RecConflict) ChangedSince(since uint64) uint64 {
	// head is 0 until the ring is full, so it always names the oldest.
	if len(r.updates) > 0 && r.updates[r.head].version > since+1 {
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

// IsFalseConflict reports whether an abort caused by conflictingCells
// is a false conflict for a transaction that accessed myCells: the
// record is shared but the cell sets are disjoint. An empty
// conflictingCells means the tracker saw no holder and no newer update:
// the abort is unattributed, and an unattributed abort is never false.
func IsFalseConflict(myCells, conflictingCells uint64) bool {
	return conflictingCells != 0 && myCells&conflictingCells == 0
}
