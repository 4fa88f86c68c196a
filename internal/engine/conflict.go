package engine

import (
	"crest/internal/layout"
)

// ConflictTracker is instrumentation that classifies aborts as true or
// false conflicts (Fig 3 of the paper). Engines report — host-side,
// at zero virtual cost — which cells each lock holder covers and which
// cells each committed update changed; an aborting transaction then
// asks whether the conflicting access overlapped its own cell set.
//
// Protocol code never reads the tracker to make decisions; it exists
// purely so the record-level baselines can report how many of their
// aborts a cell-level protocol would have avoided.
type ConflictTracker struct {
	recs map[RecKey]*recConflictState
}

type recConflictState struct {
	holders [64]int // per-cell count of accessors covering the cell
	updates []update
}

type update struct {
	version uint64
	cells   uint64
}

// conflictHistoryLen bounds the per-record update ring. A validation
// failure against a version older than the ring conservatively counts
// as a true conflict.
const conflictHistoryLen = 16

// NewConflictTracker returns an empty tracker.
func NewConflictTracker() *ConflictTracker {
	return &ConflictTracker{recs: map[RecKey]*recConflictState{}}
}

func (c *ConflictTracker) rec(table layout.TableID, key layout.Key) *recConflictState {
	k := RecKey{table, key}
	r := c.recs[k]
	if r == nil {
		r = &recConflictState{}
		c.recs[k] = r
	}
	return r
}

// OnLock records that a transaction now covers cells of (table, key).
// Several transactions may cover the same cell (CREST's local sharing
// of a compute node's remote locks), so coverage is counted per cell.
func (c *ConflictTracker) OnLock(table layout.TableID, key layout.Key, cells uint64) {
	r := c.rec(table, key)
	for m := cells; m != 0; m &= m - 1 {
		r.holders[trailingBit(m)]++
	}
}

// OnUnlock removes one transaction's coverage.
func (c *ConflictTracker) OnUnlock(table layout.TableID, key layout.Key, cells uint64) {
	r := c.rec(table, key)
	for m := cells; m != 0; m &= m - 1 {
		b := trailingBit(m)
		if r.holders[b] == 0 {
			panic("engine: conflict tracker unlock without lock")
		}
		r.holders[b]--
	}
}

func trailingBit(m uint64) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}

// HolderCells reports the cells currently covered by lock holders.
func (c *ConflictTracker) HolderCells(table layout.TableID, key layout.Key) uint64 {
	r := c.rec(table, key)
	var mask uint64
	for b, n := range r.holders {
		if n > 0 {
			mask |= 1 << uint(b)
		}
	}
	return mask
}

// OnUpdate records that a committed update produced version and
// changed cells.
func (c *ConflictTracker) OnUpdate(table layout.TableID, key layout.Key, version, cells uint64) {
	r := c.rec(table, key)
	r.updates = append(r.updates, update{version: version, cells: cells})
	if len(r.updates) > conflictHistoryLen {
		r.updates = r.updates[1:]
	}
}

// ChangedSince returns the union of cells changed by updates with
// version > since. If the ring no longer covers since, it returns the
// all-ones mask (conservatively a true conflict).
func (c *ConflictTracker) ChangedSince(table layout.TableID, key layout.Key, since uint64) uint64 {
	r := c.rec(table, key)
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

// IsFalseConflict reports whether an abort caused by conflictingCells
// is a false conflict for a transaction that accessed myCells: the
// record is shared but the cell sets are disjoint.
func IsFalseConflict(myCells, conflictingCells uint64) bool {
	return myCells&conflictingCells == 0
}
