package core

import (
	"fmt"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/sim"
)

// txnStatus tracks a local transaction's lifecycle for dependency
// tracking (§5.1 of the paper).
type txnStatus int32

const (
	txnPending txnStatus = iota
	txnCommitted
	txnAborted
)

// txnState is the per-transaction record other local transactions
// depend on. A dependent waits on waitQ until the transaction
// resolves.
type txnState struct {
	id     uint64
	tsExec uint64
	// whyID is the causality recorder's id for this transaction (0
	// when recording is off), so dependency waits and flushed versions
	// can be attributed to their creator.
	whyID uint64
	// tsAssigned is set the instant the commit timestamp is drawn,
	// before the redo-log round-trip; once set, commit is inevitable.
	// The supersede check orders against it rather than against the
	// (later) resolve.
	tsAssigned uint64
	tsCommit   uint64
	waitQ      sim.WaitQueue
	// vers is the slab the transaction's versions are cut from, with
	// room for writes of them: one per write cell of the program. The
	// versions are the transaction's and die with it — when the last
	// cell list, check or dependent lets go of them the slab goes with
	// them — so there is nothing to free or reuse.
	vers   []version
	status txnStatus
	writes int32
}

// txnVersN is a transaction state with the version slab of an N-write
// program inline: one object where there would be two. N runs to 4,
// SmallBank's and YCSB's write sets; TPC-C's NewOrder and Payment write
// more. Up to N = 3 the merged object's size class is no bigger than
// the state and the slab apart; at 4 it is 288 bytes against 112 + 160,
// 16 bytes for the object saved (TestTxnObjectSizeClasses).
type (
	txnVers1 struct {
		txnState
		v [1]version
	}
	txnVers2 struct {
		txnState
		v [2]version
	}
	txnVers3 struct {
		txnState
		v [3]version
	}
	txnVers4 struct {
		txnState
		v [4]version
	}
)

// newTxnState returns the state of a transaction whose hooks write
// writes cells. Up to four, the version slab is part of the state's
// object (txnVersN); beyond that, and for a read-only attempt, the
// state stands alone and newVersion makes the slab at the first write.
func newTxnState(id, whyID uint64, writes int) *txnState {
	var t *txnState
	var vers []version
	switch writes {
	case 1:
		s := new(txnVers1)
		t, vers = &s.txnState, s.v[:0]
	case 2:
		s := new(txnVers2)
		t, vers = &s.txnState, s.v[:0]
	case 3:
		s := new(txnVers3)
		t, vers = &s.txnState, s.v[:0]
	case 4:
		s := new(txnVers4)
		t, vers = &s.txnState, s.v[:0]
	default:
		t = new(txnState)
	}
	t.id, t.whyID, t.writes, t.vers = id, whyID, int32(writes), vers
	t.waitQ.SetLabel((*awaitLabel)(t))
	return t
}

// newVersion returns the transaction's version holding value.
func (t *txnState) newVersion(value []byte) *version {
	if len(t.vers) == cap(t.vers) {
		// Never a regrowth: installed versions are pointed at.
		t.vers = make([]version, 0, max(int(t.writes), 1))
	}
	t.vers = append(t.vers, version{txn: t, tsExec: t.tsExec, value: value})
	return &t.vers[len(t.vers)-1]
}

// awaitLabel is the transaction seen as the label of its waitQ. The
// simulator calls String only when an observer is attached or a
// deadlock report is built, never on an unreported wait.
type awaitLabel txnState

func (t *awaitLabel) String() string {
	return fmt.Sprintf("await txn%d(tsExec=%d,status=%d)", t.id, t.tsExec, t.status)
}

// resolve publishes the outcome and wakes every dependent.
func (t *txnState) resolve(status txnStatus, tsCommit uint64) {
	t.status = status
	t.tsCommit = tsCommit
	t.waitQ.WakeAll()
}

// await blocks p until the transaction resolves.
func (t *txnState) await(p *sim.Proc) {
	for t.status == txnPending {
		t.waitQ.Wait(p)
	}
}

// version is one uncommitted (or committed-but-unflushed) local value
// of a single cell, tagged with its creator's execution timestamp
// (§5.2: block ordering coordination).
type version struct {
	txn    *txnState
	tsExec uint64
	value  []byte
}

// cellState is the per-cell slice of a local object.
type cellState struct {
	versions  []*version // ordered by tsExec (ascending)
	maxReadTS uint64     // highest TS_exec that read this cell
}

// newestLive returns the newest non-aborted version, or nil.
func (c *cellState) newestLive() *version {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].txn.status != txnAborted {
			return c.versions[i]
		}
	}
	return nil
}

// objLife is where a local object stands between creation and reuse.
type objLife uint8

const (
	// objLive: created by getOrCreate and not yet retired. Normally that
	// means "in the record cache", but the cache drops objects by key
	// (ComputeNode.retire), so a live object can be out of it and still
	// in use.
	objLive objLife = iota
	// objRetired: retire ran for it. Whoever still holds it — a
	// reference, a pin — carries on as before.
	objRetired
	// objRecycled: on the compute node's free list; nobody names it.
	objRecycled
)

// object is a local object in the record cache (§5.1): the compute
// node's shared view of one record, carrying the reference counter,
// the epoch array and the version lists, plus the remote cell locks
// the compute node holds on the record.
type object struct {
	table   layout.TableID
	key     layout.Key
	off     uint64
	lay     *layout.Record
	primary *memnode.Node

	mu sim.Mutex // local 2PL lock (one per object, §5.2)

	readers int // reference counter: local txns reading the record
	writers int // reference counter: local txns updating the record
	// pins counts coordinators holding the object across a park with no
	// reference registered (prepare before registration, applyRelease
	// over its work list). References and pins are all the ways to name
	// an object that left the cache: its shell is reused only when both
	// are zero (ComputeNode.recycle).
	pins int
	life objLife

	admitted  bool // base/epochs populated from the memory pool
	admitting bool // one coordinator is fetching (cache admission)
	flushing  bool // last writer is writing back
	// owner names remoteLocks' holdings in the contention table while
	// the why recorder is on; 0 while it has none.
	owner uint32
	// releaseReq counts coordinators about to release/flush this
	// object; admissions hold off while it is nonzero so a steady
	// stream of reader refetches cannot starve the last writer's
	// release.
	releaseReq int
	stateQ     sim.WaitQueue // waiters for admission / flush transitions

	// streak counts consecutive write transactions that piggybacked on
	// the held remote locks; past maxPiggyback, drainPending
	// turns away new writers until the last writer releases, giving
	// other compute nodes a window to acquire the cells.
	streak       int
	drainPending bool
	// drainUntil extends the release window after the locks drop:
	// local writers hold back until this instant so contending compute
	// nodes can win the cells (locals otherwise recapture at the very
	// release instant, starving remote writers).
	drainUntil sim.Time

	// scanGen is the compute node's dedup stamp (see applyRelease).
	scanGen uint64

	// whyOwner is the causality id of the transaction currently inside
	// the object's local critical section (0 when recording is off or
	// the mutex is free), read by waiters to attribute local-wait
	// edges. Maintained unconditionally — a plain uint64 store.
	whyOwner uint64

	remoteLocks uint64               // cell lock bits this CN holds in the pool
	epochs      []uint16             // CN view of the pool's EN array
	base        [][]byte             // committed cell values (CN view)
	baseVer     []layout.CellVersion // cell versions matching base
	cells       []cellState          // per-cell version lists
	firstFetch  sim.Time             // when base was fetched (EN threshold)
}

func newObject(table layout.TableID, key layout.Key, off uint64, lay *layout.Record, primary *memnode.Node) *object {
	n := lay.NumCells()
	o := &object{
		epochs:  make([]uint16, n),
		base:    make([][]byte, n),
		baseVer: make([]layout.CellVersion, n),
		cells:   make([]cellState, n),
	}
	o.init(table, key, off, lay, primary)
	return o
}

// init makes o — a fresh shell or a recycled one of the same table — the
// new, unadmitted object of a record. Of a recycled shell only the
// storage survives: the four per-cell slices, the capacity of the
// version lists, and the mutex and admission queue, which recycle
// emptied but whose arrays stay. Cell values are not storage: base
// blocks belong to the attempts that read them (see install), and
// recycle has let go of them.
func (o *object) init(table layout.TableID, key layout.Key, off uint64, lay *layout.Record, primary *memnode.Node) {
	clear(o.epochs)
	clear(o.baseVer)
	for c := range o.cells {
		// A retired object's lists are empty — versions live under remote
		// locks, which the flush that folds them releases — and cleared
		// beyond their length (dropAborted, collectFlush).
		o.cells[c] = cellState{versions: o.cells[c].versions[:0]}
	}
	*o = object{
		table:   table,
		key:     key,
		off:     off,
		lay:     lay,
		primary: primary,
		mu:      o.mu,
		stateQ:  o.stateQ,
		epochs:  o.epochs,
		base:    o.base,
		baseVer: o.baseVer,
		cells:   o.cells,
	}
	o.mu.SetLabel((*objMuLabel)(o))
	o.stateQ.SetLabel((*objStateLabel)(o))
}

// install takes the cells of a fetched record image (data, its header
// decoded into h) into the base view, except the cells of keep, which
// stay as the compute node has them. The values go into one block cut
// here from the compute node's chunks, never over the old ones:
// attempts hold ReadVals slices into the base they read until they
// commit, and the history oracle hashes them then. A block is never
// reused and the chunks are never Reset — a chunk goes when the last
// slice into it does — and a block over a quarter chunk is made on its
// own, so that it neither wastes a chunk's tail nor pins one.
func (o *object) install(chunks *engine.Arena, data []byte, h *layout.Header, keep uint64) {
	lay := o.lay
	size := 0
	for c := range o.base {
		if keep&(1<<uint(c)) == 0 {
			size += lay.CellSize(c)
		}
	}
	var block []byte
	if size > engine.ArenaChunk/4 {
		block = make([]byte, size)
	} else {
		block = chunks.Bytes(size)
	}
	for c := range o.base {
		if keep&(1<<uint(c)) != 0 {
			continue
		}
		n := lay.CellSize(c)
		o.base[c] = block[:n:n]
		block = block[n:]
		copy(o.base[c], data[lay.CellValueOff(c):])
		o.baseVer[c] = layout.GetCellVersion(data[lay.CellOff(c):])
		o.epochs[c] = h.EN[c]
	}
}

// objMuLabel and objStateLabel are the object seen as the label of its
// mutex and of its admission queue, lazy like awaitLabel: the state
// label describes the object as it is when someone asks.
type (
	objMuLabel    object
	objStateLabel object
)

func (o *objMuLabel) String() string { return fmt.Sprintf("mutex obj %d/%d", o.table, o.key) }

func (o *objStateLabel) String() string {
	return fmt.Sprintf("obj %d/%d admitting=%v flushing=%v locks=%b w=%d r=%d",
		o.table, o.key, o.admitting, o.flushing, o.remoteLocks, o.writers, o.readers)
}

// refTotal is the object's total reference count.
func (o *object) refTotal() int { return o.readers + o.writers }

// latest returns the value a reader at tsExec should observe for cell
// c and the version it came from (nil when the base value applies).
func (o *object) latest(c int) (*version, []byte) {
	if v := o.cells[c].newestLive(); v != nil {
		return v, v.value
	}
	return nil, o.base[c]
}

// append installs a new version of cell c.
func (o *object) append(c int, v *version) {
	o.cells[c].versions = append(o.cells[c].versions, v)
}

// dropAborted removes aborted versions from every cell list.
func (o *object) dropAborted() {
	for c := range o.cells {
		vs := o.cells[c].versions
		live := vs[:0]
		for _, v := range vs {
			if v.txn.status != txnAborted {
				live = append(live, v)
			}
		}
		clear(vs[len(live):])
		o.cells[c].versions = live
	}
}

// flushPlan describes what the last writer must write back for one
// cell: the newest committed value, its commit timestamp, and how many
// epoch increments the folded versions represent.
type flushPlan struct {
	cell  int
	value []byte
	ts    uint64
	en    uint16 // epoch number after the folded bumps
	bumps int
	why   uint64 // causality id of the version's creator (0 = off)
}

// collectFlush folds every committed version into the base and appends
// the write-back plan to plans. It must run when writers == 0, i.e.
// when every version is resolved. Pending versions cannot exist then.
//
// Pending readers of the folded versions need no bookkeeping here:
// they revalidate at commit (the fold moves the base commit timestamp,
// which their supersede check compares against).
func (o *object) collectFlush(plans []flushPlan) []flushPlan {
	o.dropAborted()
	for c := range o.cells {
		cs := &o.cells[c]
		vs := cs.versions
		if len(vs) == 0 {
			continue
		}
		newest := vs[len(vs)-1]
		if newest.txn.status != txnCommitted {
			panic("core: flush with unresolved version")
		}
		bumps := len(vs)
		en := o.epochs[c] + uint16(bumps)
		plans = append(plans, flushPlan{cell: c, value: newest.value, ts: newest.txn.tsCommit, en: en, bumps: bumps, why: newest.txn.whyID})
		o.epochs[c] = en
		o.base[c] = newest.value
		o.baseVer[c] = layout.CellVersion{EN: en, TS: newest.txn.tsCommit}
		clear(vs)
		cs.versions = vs[:0]
	}
	return plans
}
