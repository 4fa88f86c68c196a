package engine

// The two per-record tables the contention table replaced, kept as the
// reference TestRecConflictMatchesReference holds it to: the
// strict driver's conflict tracker (holder cells and a 16-update ring,
// found by heap slot) and the why recorder's record table (holders and
// updaters with their transaction ids, found through a map per table).
// Their code is as it was last, with identifiers that would clash in
// this package renamed: the tracker's ConflictTracker and update, the
// recorder's Recorder, slab, slabShift and updRing, and causality.Txn
// spelled out. The recorder keeps only its record table.

import (
	"crest/internal/causality"
	"crest/internal/layout"
	"crest/internal/memnode"
)

// refTracker is the strict driver's conflict tracker.
type refTracker struct {
	tables map[layout.TableID]*Table // the database's tables, for their heaps
	recs   map[layout.TableID]*tableConflicts
	// States and the rings they grow into are cut from slabs the tracker
	// holds: a state is never freed, so nothing is ever returned, and a
	// tracker belongs to one partition, so nothing is shared.
	states []RecConflict
	rings  []refUpdate
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

// newRefTracker returns an empty tracker over tables (a DB's
// Tables, which may still gain tables).
func newRefTracker(tables map[layout.TableID]*Table) *refTracker {
	return &refTracker{tables: tables, recs: map[layout.TableID]*tableConflicts{}}
}

// Rec returns the state of table's record at heap offset off — the
// record's identity on this path: no key is hashed.
func (c *refTracker) Rec(table layout.TableID, off uint64) *RecConflict {
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
func (c *refTracker) newRecConflict() *RecConflict {
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

// newRing cuts an empty refUpdate ring from the current slab.
func (c *refTracker) newRing() []refUpdate {
	if len(c.rings) == 0 {
		c.rings = make([]refUpdate, ringSlab*conflictHistoryLen)
	}
	ring := c.rings[:0:conflictHistoryLen]
	c.rings = c.rings[conflictHistoryLen:]
	return ring
}

// RecConflict is one record's classification state: the cell coverage
// of its live lock holders and the cells its latest updates changed.
type RecConflict struct {
	tracker *refTracker // whose slabs the state and its ring come from
	// holders is one coverage mask per OnLock not yet undone by its
	// OnUnlock, in no particular order.
	holders []uint64
	// updates is the newest conflictHistoryLen updates: filled in order,
	// then a ring whose oldest entry is at head.
	updates []refUpdate
	head    int
	// Room for the common case — a holder or two, a record updated once
	// or twice (every inserted row) — so that it takes no ring.
	holders0 [2]uint64
	updates0 [2]refUpdate
}

type refUpdate struct {
	version uint64
	cells   uint64
}

// conflictHistoryLen bounds the per-record refUpdate ring. A validation
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

// OnUpdate records that a committed refUpdate produced version and
// changed cells.
func (r *RecConflict) OnUpdate(version, cells uint64) {
	u := refUpdate{version: version, cells: cells}
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

// refRecorder is the why recorder's record table.
type refRecorder struct {
	recs   recIndex
	states refSlab[recState]
	rings  refSlab[refUpdRing]
	spills [][]holderEntry
}

// recIndex maps records to uint32 values: one map per table, keyed
// by the record key alone, so that a probe hashes one word and the
// maps hold no pointers. A run has a few tables; the scan for one
// finds it before a hash of the table id would have.
type recIndex struct {
	tables []layout.TableID
	keys   []map[layout.Key]uint32
}

func (x *recIndex) get(table layout.TableID, key layout.Key) (uint32, bool) {
	for i, t := range x.tables {
		if t == table {
			v, ok := x.keys[i][key]
			return v, ok
		}
	}
	return 0, false
}

func (x *recIndex) put(table layout.TableID, key layout.Key, v uint32) {
	for i, t := range x.tables {
		if t == table {
			x.keys[i][key] = v
			return
		}
	}
	x.tables = append(x.tables, table)
	x.keys = append(x.keys, map[layout.Key]uint32{key: v})
}

// holderEntry is one live lock holding: the acquiring transaction, the
// cell bits it holds (0 = record-level lock word) and the owner whose
// release ends it.
type holderEntry struct {
	id    uint64
	mask  uint64
	owner uint64
}

// updaterHistoryLen mirrors engine.ConflictTracker's 16-entry update
// ring: versions older than the window lose attribution and the edge
// conservatively records Holder 0.
const updaterHistoryLen = 16

// updEntry is one installed version with the transaction that wrote it.
type updEntry struct {
	version uint64
	id      uint64
	cells   uint64
}

// refUpdRing holds a record's updater history past its first two
// entries, once it has a third: slots 2..15 of the 16-entry ring.
type refUpdRing [updaterHistoryLen - 2]updEntry

// recState is the per-record attribution state. It holds no pointer:
// the first two live holders and the first two slots of the updater
// ring sit inline, and what outgrows them lives in the recorder's side
// tables, named here by 1-based index (0 = none yet). A third
// concurrent holder spills the rest of the holder list into
// spills[spill-1]; a third update cuts the ring's other 14 slots from
// the recorder's ring refSlab. Slots keep their order, so the ring fills
// and wraps exactly as one 16-entry array would.
type recState struct {
	hold  [2]holderEntry
	upd   [2]updEntry
	nHold uint32 // live holders, oldest first: hold, then the spill
	spill uint32
	ring  uint32
	nUpd  uint8 // recorded updates, at most updaterHistoryLen
	pos   uint8 // next slot to overwrite once the ring is full
}

// refSlabShift sizes the record table's chunks: 1<<refSlabShift elements each.
const refSlabShift = 8

// refSlab is append-only storage addressed by index, cut in chunks of
// 1<<refSlabShift elements so that an element never moves and a new one
// costs an allocation only once a chunk.
type refSlab[T any] struct {
	chunks [][]T
	n      uint32
}

// add appends a zero element and returns its index.
func (s *refSlab[T]) add() uint32 {
	if s.n&(1<<refSlabShift-1) == 0 {
		s.chunks = append(s.chunks, make([]T, 1<<refSlabShift))
	}
	s.n++
	return s.n - 1
}

// at returns element i.
func (s *refSlab[T]) at(i uint32) *T { return &s.chunks[i>>refSlabShift][i&(1<<refSlabShift-1)] }

// rec returns the attribution state for a record, creating it on first
// touch (warm-up; steady state only looks up).
func (r *refRecorder) rec(table layout.TableID, key layout.Key) *recState {
	i, ok := r.recs.get(table, key)
	if !ok {
		i = r.states.add()
		r.recs.put(table, key, i)
	}
	return r.states.at(i)
}

// lookup returns a record's attribution state, nil when it was never
// touched.
func (r *refRecorder) lookup(table layout.TableID, key layout.Key) *recState {
	i, ok := r.recs.get(table, key)
	if !ok {
		return nil
	}
	return r.states.at(i)
}

// holder returns rs's i-th live holder, oldest first.
func (r *refRecorder) holder(rs *recState, i uint32) *holderEntry {
	if i < uint32(len(rs.hold)) {
		return &rs.hold[i]
	}
	return &r.spills[rs.spill-1][i-uint32(len(rs.hold))]
}

// setHolders truncates rs's holder list to n, keeping its spill's
// array for the next holder past the second.
func (r *refRecorder) setHolders(rs *recState, n uint32) {
	rs.nHold = n
	if rs.spill != 0 {
		r.spills[rs.spill-1] = r.spills[rs.spill-1][:max(n, uint32(len(rs.hold)))-uint32(len(rs.hold))]
	}
}

// OnLock registers t as a live holder of the given cell bits (0 = the
// record-level lock word), until OnUnlock ends the holdings of owner.
func (r *refRecorder) OnLock(t *causality.Txn, table layout.TableID, key layout.Key, mask, owner uint64) {
	if r == nil || t == nil {
		return
	}
	rs := r.rec(table, key)
	e := holderEntry{id: t.ID, mask: mask, owner: owner}
	switch {
	case rs.nHold < uint32(len(rs.hold)):
		rs.hold[rs.nHold] = e
	case rs.spill == 0:
		r.spills = append(r.spills, []holderEntry{e})
		rs.spill = uint32(len(r.spills))
	default:
		r.spills[rs.spill-1] = append(r.spills[rs.spill-1], e)
	}
	rs.nHold++
}

// OnUnlock ends the record's holdings of owner, once its unlock has
// completed: a holding taken while the unlock was in flight survives.
func (r *refRecorder) OnUnlock(table layout.TableID, key layout.Key, owner uint64) {
	if r == nil {
		return
	}
	rs := r.lookup(table, key)
	if rs == nil {
		return
	}
	kept := uint32(0)
	for i := uint32(0); i < rs.nHold; i++ {
		if h := *r.holder(rs, i); h.owner != owner {
			*r.holder(rs, kept) = h
			kept++
		}
	}
	r.setHolders(rs, kept)
}

// holderOf resolves the oldest live holder of rs overlapping mask (any
// holder when mask is 0); 0 when none is known.
func (r *refRecorder) holderOf(rs *recState, mask uint64) uint64 {
	if rs == nil {
		return 0
	}
	for i := uint32(0); i < rs.nHold; i++ {
		if h := r.holder(rs, i); mask == 0 || h.mask == 0 || h.mask&mask != 0 {
			return h.id
		}
	}
	return 0
}

// OnUpdate records that transaction id installed version over the
// given cells, feeding updater attribution for validation failures.
// id 0 (recording off at the writer) still advances the ring so stale
// versions age out.
func (r *refRecorder) OnUpdate(id uint64, table layout.TableID, key layout.Key, version, cells uint64) {
	if r == nil {
		return
	}
	rs := r.rec(table, key)
	slot := rs.nUpd
	if rs.nUpd < updaterHistoryLen {
		rs.nUpd++
	} else {
		slot = rs.pos
		rs.pos = (rs.pos + 1) % updaterHistoryLen
	}
	e := updEntry{version: version, id: id, cells: cells}
	if int(slot) < len(rs.upd) {
		rs.upd[slot] = e
		return
	}
	if rs.ring == 0 {
		rs.ring = r.rings.add() + 1
	}
	r.rings.at(rs.ring - 1)[int(slot)-len(rs.upd)] = e
}

// updaterSince resolves the newest recorded updater of rs whose version
// is past since; 0 when the window no longer covers it.
func (r *refRecorder) updaterSince(rs *recState, since uint64) uint64 {
	if rs == nil {
		return 0
	}
	var best, bestVer uint64
	newer := func(slots []updEntry) {
		for _, e := range slots {
			if e.version > since && e.version >= bestVer && e.id != 0 {
				best, bestVer = e.id, e.version
			}
		}
	}
	newer(rs.upd[:min(int(rs.nUpd), len(rs.upd))])
	if rs.ring != 0 {
		newer(r.rings.at(rs.ring - 1)[:int(rs.nUpd)-len(rs.upd)])
	}
	return best
}
