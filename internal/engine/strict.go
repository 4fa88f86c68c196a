package engine

import (
	"fmt"

	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
)

// This file is the strict attempt driver: the one implementation of the
// optimistic protocol shape FORD, Motor and CREST's Base / +Cell
// variants share (Table 2 of the paper lays them out on the same three
// rows):
//
//	execution:  per block, lock verb + READ for read-write records and
//	            READ for read-only ones, batched per memory node into
//	            one round-trip (no-wait: a lost lock aborts the
//	            attempt), then the block's hooks run locally;
//	validation: one READ per record whose reads its own lock does not
//	            protect, batched per node;
//	commit:     timestamp, one log WRITE per log replica, then install
//	            writes + unlock batched per replica — strict locking
//	            holds every lock until here.
//
// What differs between those systems is the record format — how a
// record is laid out, locked, parsed, validated, logged and installed —
// and that is the Format seam below. The driver never asks which system
// it is running.

// Work is the driver's per-record state for one attempt. X is the
// format's own per-record state (layout pointer, versions, slots).
type Work[X any] struct {
	RecBase
	Off    uint64 // record offset, the same on every replica
	Cells  uint64 // cells the op touches, for conflict classification
	Lock   uint64 // cells the record's lock covers, as observers see it (Format.Bind)
	Locked bool   // lock held on the primary
	owner  uint32 // names the lock holding in the contention table while Locked
	Data   []byte // working copy; what it holds is the format's business
	X      X

	conf Row // the record's contention-table row, once the attempt needed it
}

// Snapshot is the read view of an attempt: the zero value reads the
// latest committed state; Read set, records are read as of TS and the
// attempt commits without validation.
type Snapshot struct {
	Read bool
	TS   uint64
}

// FetchStatus is a format's verdict on one fetched record.
type FetchStatus int

// Fetch verdicts.
const (
	FetchOK    FetchStatus = iota // working copy taken
	FetchRetry                    // unusable right now (foreign lock on a read, torn snapshot): fetch again
	FetchStale                    // the snapshot's version is gone: abort. Only snapshot reads, which hold no locks, may report it.
)

// Format is a record format under the strict driver: everything that
// differs between the systems running it. One value serves a whole
// system, from every partition at once, so implementations keep no
// per-attempt state outside Work.
type Format[X any] interface {
	// RecordLayout is the load side: the layout written at Load.
	RecordLayout
	// Name is the engine label ("FORD", "CREST-base").
	Name() string

	// SnapshotRead reports whether t runs against a start snapshot and
	// commits without a validation round.
	SnapshotRead(t *Txn) bool
	// Bind attaches the table's layout to a new work and sets w.Lock.
	Bind(w *Work[X])

	// LockOp is the verb that takes w's lock for coordinator c, or false
	// if w needs none. Within a node batch it precedes the record's READ.
	LockOp(c *Coord, w *Work[X]) (rdma.Op, bool)
	// UnlockOp is the verb that gives it back.
	UnlockOp(c *Coord, w *Work[X]) rdma.Op
	// FetchLen is how many bytes at w.Off a fetch reads.
	FetchLen(w *Work[X]) int
	// Parse takes the working copy out of a fetched record — rec is
	// fabric scratch, valid only during the call — or reports why it
	// cannot, with the cells in conflict for the observers.
	Parse(w *Work[X], rec []byte, snap Snapshot) (FetchStatus, uint64)
	// Refetch is called when a round left records to fetch again: the
	// wait before round+1, or false to abort the attempt instead.
	Refetch(p *sim.Proc, round int) (sim.Duration, bool)
	// NodeMajor selects FORD's handling of a fetch round: results are
	// consumed node batch by node batch and the first lost lock alone
	// classifies the abort. Otherwise they are consumed in (table, key)
	// order and every lost or refetched record's cells are merged.
	NodeMajor() bool

	// Cell returns cell's bytes inside the working copy, for the hook's
	// reads to be copied from and its writes to be copied into.
	Cell(w *Work[X], cell int) []byte

	// ValidateOp is the READ that re-checks w's reads elapsed into the
	// attempt, or false if its lock already protects them.
	ValidateOp(w *Work[X], elapsed sim.Duration) (rdma.Op, bool)
	// Check compares what ValidateOp read against the working copy. On
	// a mismatch ok is false and the rest describes it: the cells
	// affected, the version w read (so the tracker can say what changed
	// since) and whether a foreign lock covers them.
	Check(w *Work[X], data []byte, elapsed sim.Duration) (cells, since uint64, locked, ok bool)

	// AppendLog appends the commit's log entry: one record per locked
	// work of ws.
	AppendLog(buf []byte, c *Coord, ws []*Work[X], ts uint64) []byte
	// Install appends the WRITEs that publish w's working copy at ts,
	// addressed at w.Off; the driver sends them to every replica and
	// adds the primary's unlock. Payloads come from arena.
	Install(p *sim.Proc, c *Coord, w *Work[X], ts uint64, arena *Arena, ops []rdma.Op) []rdma.Op
}

// StrictSystem is a system running the strict driver over one format.
type StrictSystem[X any] struct {
	db  *DB
	fmt Format[X]
}

// NewStrictSystem creates a system of format f on db.
func NewStrictSystem[X any](db *DB, f Format[X]) *StrictSystem[X] {
	return &StrictSystem[X]{db: db, fmt: f}
}

// Name is the conventional engine label.
func (s *StrictSystem[X]) Name() string { return s.fmt.Name() }

// DB exposes the underlying database substrate.
func (s *StrictSystem[X]) DB() *DB { return s.db }

// CreateTable registers a table in the system's record format.
func (s *StrictSystem[X]) CreateTable(sc layout.Schema, capacity int) {
	s.db.CreateTableAs(s.fmt, sc, capacity)
}

// Load writes a record's initial cell values host-side (pre-load).
func (s *StrictSystem[X]) Load(table layout.TableID, key layout.Key, cells [][]byte) {
	s.db.Load(s.fmt, table, key, cells)
}

// FinishLoad publishes the hash indexes.
func (s *StrictSystem[X]) FinishLoad() error { return s.db.FinishLoad() }

// NewComputeNode creates compute node state on the root database.
func (s *StrictSystem[X]) NewComputeNode(id int) ComputeNode {
	return s.NewPartitionComputeNode(id, s.db)
}

// NewPartitionComputeNode creates compute node state bound to a
// partition view of the database.
func (s *StrictSystem[X]) NewPartitionComputeNode(_ int, db *DB) ComputeNode {
	return &strictNode[X]{fmt: s.fmt, db: db, cache: hashindex.NewAddrCache()}
}

// ComputeNode groups the coordinators of one compute node.
type ComputeNode interface {
	// WarmCache preloads the node's address cache with every record.
	WarmCache()
	// NewCoordinator creates coordinator id, unique across nodes.
	NewCoordinator(id int) Coordinator
}

// strictNode is a compute node of a strict system: its coordinators
// share only the address cache.
type strictNode[X any] struct {
	fmt   Format[X]
	db    *DB
	cache *hashindex.AddrCache
}

func (cn *strictNode[X]) WarmCache() { cn.db.WarmCache(cn.cache) }

func (cn *strictNode[X]) NewCoordinator(id int) Coordinator {
	return NewStrict(NewCoord(cn.db, cn.cache, id), cn.fmt)
}

// Strict is a coordinator executing attempts through the strict driver.
type Strict[X any] struct {
	Coord
	fmt  Format[X]
	free FreeList[strictScratch[X]]
}

// NewStrict runs format f on an already bootstrapped coordinator.
func NewStrict[X any](c Coord, f Format[X]) *Strict[X] { return &Strict[X]{Coord: c, fmt: f} }

// strictScratch is the driver's attempt scratch (see Scratch).
type strictScratch[X any] struct {
	Scratch
	slab   Slab[Work[X]]
	ws     []*Work[X] // every record of the attempt: block by block, (table, key) order within a block
	order  []*Work[X] // the current block's records in program order
	todo   []*Work[X] // records the current fetch round reads
	again  []*Work[X] // records it must read again
	slots  []fetchSlot[X]
	byNode []fetchSlot[X] // slots regrouped node batch by node batch
	batchW [][]*Work[X]   // validation: the works behind each batch's READs
}

// fetchSlot maps one record of a fetch round to its results.
type fetchSlot[X any] struct {
	w       *Work[X]
	bi      int // node batch
	cas, rd int // result indexes in that batch; cas is -1 without a lock verb
}

// Execute runs one attempt of t. It never retries; the caller owns
// backoff and retry.
func (c *Strict[X]) Execute(p *sim.Proc, t *Txn) Attempt {
	db := c.DB
	at := BeginAttempt(db, p, c.GID, c.Home, t)
	var snap Snapshot
	if c.fmt.SnapshotRead(t) {
		snap = Snapshot{Read: true, TS: db.TSO.Last()}
	}
	sc := c.free.Get()
	if sc == nil {
		sc = &strictScratch[X]{Scratch: c.NewScratch()}
	}
	sc.slab.Reset()
	sc.Arena.Reset()
	sc.ws = sc.ws[:0]
	defer c.free.Put(sc)

	// Execution phase: per block, fetch (and lock) the records not seen
	// yet, then run every op of the block in program order.
	for bi := range t.Blocks {
		block := c.prepare(p, t, &t.Blocks[bi], sc)
		if db.Pool.Shards() > 1 && WriteShards(db.Pool, sc.ws).Beyond(c.Home) {
			at.MarkCrossShard()
		}
		at.Phase(trace.PhaseLock)
		reason, falseC := c.fetch(p, sc, block, snap)
		at.Phase(trace.PhaseExec)
		if reason != AbortNone {
			return c.abort(p, sc, &at, reason, falseC)
		}
		for _, w := range sc.order {
			c.apply(p, t, sc, w)
		}
	}

	if snap.Read {
		// A writer holds the record lock from before its timestamp is
		// drawn until its version is installed, so a snapshot reader
		// that sat out the locks has seen every version older than its
		// snapshot: no validation round. Its commit timestamp is drawn
		// with or without a history: the draw advances the oracle, and
		// the schedule counts on it.
		ts := db.TSO.Next()
		CommitRecs(&db.Obs, p, HTxn{TS: ts, Snapshot: true, SnapshotTS: snap.TS}, sc.ws)
		return at.Done()
	}

	at.Phase(trace.PhaseValidate)
	if reason, falseC := c.validate(p, sc, p.Now().Sub(at.Start())); reason != AbortNone {
		return c.abort(p, sc, &at, reason, falseC)
	}

	// Commit phase. The timestamp is drawn after validation and before
	// the log write.
	at.Phase(trace.PhaseLog)
	ts := db.TSO.Next()
	c.writeLog(p, sc, ts)
	at.Phase(trace.PhaseApply)
	c.install(p, sc, ts)
	CommitRecs(&db.Obs, p, HTxn{TS: ts}, sc.ws)
	return at.Done()
}

// abort releases before Fail: the strict engines have always charged
// abort-time lock release to the phase that failed.
func (c *Strict[X]) abort(p *sim.Proc, sc *strictScratch[X], at *AttemptTimer, reason AbortReason, falseC bool) Attempt {
	c.release(p, sc)
	at.Fail(reason, falseC)
	return at.Done()
}

// prepare resolves the block's keys into work entries and returns them:
// appended to sc.ws in (table, key) order, for deterministic batching,
// and kept in program order, for the hooks, in sc.order.
func (c *Strict[X]) prepare(p *sim.Proc, t *Txn, blk *Block, sc *strictScratch[X]) []*Work[X] {
	start := len(sc.ws)
	sc.order = sc.order[:0]
	for oi := range blk.Ops {
		op := &blk.Ops[oi]
		k := RecKey{op.Table, op.ResolveKey(t.State)}
		if FindRec(sc.ws, k) != nil {
			panic(DuplicateRecord(k))
		}
		primary, off := c.Resolve(p, k)
		w := sc.slab.Next()
		*w = Work[X]{
			RecBase: RecBase{Op: op, RecKey: k, Primary: primary, ReadVals: w.ReadVals[:0]},
			Off:     off,
			Cells:   op.CellMask(),
			Data:    w.Data[:0],
		}
		c.fmt.Bind(w)
		sc.ws = append(sc.ws, w)
		sc.order = append(sc.order, w)
	}
	SortRecs(sc.ws[start:])
	return sc.ws[start:]
}

// conflict returns the contention-table row of w's record, looked up
// at most once per attempt.
func (c *Strict[X]) conflict(w *Work[X]) Row {
	if w.conf.row == nil {
		w.conf = c.DB.Tracker.Row(w.Table, w.Off)
	}
	return w.conf
}

// DuplicateRecord is the panic for a transaction naming one record in
// two ops: each record a transaction touches appears in exactly one Op
// (see Op).
func DuplicateRecord(k RecKey) string {
	return fmt.Sprintf("engine: record %v accessed by two ops of one transaction", k)
}

// fetch locks and reads the block's records, one round-trip per round
// with everything batched per memory node and each lock verb ahead of
// its record's READ. Records the format cannot use yet are read again
// for as long as the format's Refetch allows.
func (c *Strict[X]) fetch(p *sim.Proc, sc *strictScratch[X], ws []*Work[X], snap Snapshot) (AbortReason, bool) {
	if len(ws) == 0 {
		return AbortNone, false
	}
	db := c.DB
	nodeMajor := c.fmt.NodeMajor()
	todo := append(sc.todo[:0], ws...)
	sc.todo = todo
	for round := 0; ; round++ {
		sc.Bat.Begin()
		sc.slots = sc.slots[:0]
		for _, w := range todo {
			s := fetchSlot[X]{w: w, bi: sc.Bat.Batch(w.Primary.Region), cas: -1}
			if !w.Locked {
				if op, ok := c.fmt.LockOp(&c.Coord, w); ok {
					s.cas = sc.Bat.Append(s.bi, op)
				}
			}
			s.rd = sc.Bat.Append(s.bi, rdma.Op{Kind: rdma.OpRead, Off: w.Off, Len: c.fmt.FetchLen(w)})
			sc.slots = append(sc.slots, s)
		}
		results := post(p, sc.Bat.Batches())
		slots := sc.slots
		if nodeMajor {
			sc.byNode = byBatch(sc.byNode[:0], slots, len(results))
			slots = sc.byNode
		}
		again := sc.again[:0]
		lockFailed, stale := false, false
		var mine, theirs uint64
		// Every lock result is consumed before any abort return: a
		// sibling lock verb of the round may have succeeded, and it must
		// be recorded for the abort path to release it.
		for i := range slots {
			s := &slots[i]
			w := s.w
			if s.cas >= 0 {
				if !results[s.bi][s.cas].OK {
					// No-wait on locks: the attempt aborts.
					if !(nodeMajor && lockFailed) {
						mine |= w.Cells
						theirs |= c.conflict(w).HolderCells()
					}
					lockFailed = true
					db.Obs.LockConflict(p, w.Table, w.Key, w.Off, w.Lock)
					continue
				}
				w.Locked = true
				w.owner = c.conflict(w).Acquire(0, db.Obs.WhyID(p), w.Cells, w.Lock)
				db.Obs.LockAcquired(p, w.Table, w.Key, w.Lock)
			}
			if stale {
				continue
			}
			switch status, cells := c.fmt.Parse(w, results[s.bi][s.rd].Data, snap); status {
			case FetchRetry:
				again = append(again, w)
				mine |= w.Cells
				theirs |= c.conflict(w).HolderCells()
				db.Obs.LockConflict(p, w.Table, w.Key, w.Off, cells)
			case FetchStale:
				stale = true
			}
		}
		sc.again = again
		switch {
		case stale:
			return AbortValidation, false
		case lockFailed:
			return AbortLockFail, IsFalseConflict(mine, theirs)
		case len(again) == 0:
			return AbortNone, false
		}
		back, ok := c.fmt.Refetch(p, round)
		if !ok {
			return AbortLockFail, IsFalseConflict(mine, theirs)
		}
		// Ping-pong the two retained backings: this round's todo becomes
		// the next round's refetch accumulator and vice versa.
		sc.todo, sc.again = again, todo[:0]
		todo = again
		p.Sleep(back)
		db.Obs.BackedOff(p, back)
	}
}

// byBatch appends a round's slots to dst node batch by node batch,
// keeping their order within each of the batches.
func byBatch[X any](dst, slots []fetchSlot[X], batches int) []fetchSlot[X] {
	for bi := 0; bi < batches; bi++ {
		for _, s := range slots {
			if s.bi == bi {
				dst = append(dst, s)
			}
		}
	}
	return dst
}

// apply runs w's hook against the working copy. Read copies live in the
// attempt arena: hooks may retain them only for the attempt (the history
// record consumes them before the scratch is recycled).
func (c *Strict[X]) apply(p *sim.Proc, t *Txn, sc *strictScratch[X], w *Work[X]) {
	op := w.Op
	read := w.ReadVals[:0]
	for _, cell := range op.ReadCells {
		src := c.fmt.Cell(w, cell)
		b := sc.Bytes(len(src))
		copy(b, src)
		read = append(read, b)
	}
	p.Sleep(c.DB.Cost.OpCost(len(op.ReadCells) + len(op.WriteCells)))
	written := op.RunHook(c.fmt.Name(), t.State, read, c.DB.Table(w.Table).Schema.CellSizes)
	for i, cell := range op.WriteCells {
		copy(c.fmt.Cell(w, cell), written[i])
	}
	w.ReadVals, w.WriteVals = read, written
}

// validate re-reads what the format needs to check every read no lock
// protects, batched per memory node in one round-trip. elapsed is how
// far into the attempt validation starts.
func (c *Strict[X]) validate(p *sim.Proc, sc *strictScratch[X], elapsed sim.Duration) (AbortReason, bool) {
	db := c.DB
	sc.Bat.Begin()
	for i := range sc.batchW {
		sc.batchW[i] = sc.batchW[i][:0]
	}
	for _, w := range sc.ws {
		op, ok := c.fmt.ValidateOp(w, elapsed)
		if !ok {
			continue
		}
		bi := sc.Bat.Batch(w.Primary.Region)
		for bi >= len(sc.batchW) {
			sc.batchW = append(sc.batchW, nil)
		}
		sc.Bat.Append(bi, op)
		sc.batchW[bi] = append(sc.batchW[bi], w)
	}
	for bi, res := range post(p, sc.Bat.Batches()) {
		for ri, w := range sc.batchW[bi] {
			cells, since, locked, ok := c.fmt.Check(w, res[ri].Data, elapsed)
			if ok {
				continue
			}
			conf := c.conflict(w)
			conflicting := conf.ChangedSince(since)
			if locked {
				conflicting |= conf.HolderCells()
			}
			db.Obs.ValidationConflict(p, w.Table, w.Key, w.Off, cells, since)
			return AbortValidation, IsFalseConflict(w.Cells, conflicting)
		}
	}
	return AbortNone, false
}

// release clears every lock the attempt holds, batched per node in one
// round-trip. As in install, the contention table keeps each holding
// until its unlock has completed: a lock verb that loses while the
// unlock is in flight still finds its holder.
func (c *Strict[X]) release(p *sim.Proc, sc *strictScratch[X]) {
	db := c.DB
	sc.Bat.Begin()
	for _, w := range sc.ws {
		if !w.Locked {
			continue
		}
		sc.Bat.Append(sc.Bat.Batch(w.Primary.Region), c.fmt.UnlockOp(&c.Coord, w))
		db.Obs.LockReleased(p, w.Table, w.Key, w.Lock)
	}
	post(p, sc.Bat.Batches())
	for _, w := range sc.ws {
		if w.Locked {
			c.conflict(w).Release(w.owner)
			w.Locked = false
		}
	}
}

// writeLog persists the format's log entry for the attempt's locked
// records; attempts that wrote nothing skip the log.
func (c *Strict[X]) writeLog(p *sim.Proc, sc *strictScratch[X], ts uint64) {
	wrote := false
	for _, w := range sc.ws {
		wrote = wrote || w.Locked
	}
	if !wrote {
		return
	}
	sc.LogBuf = c.fmt.AppendLog(sc.LogBuf[:0], &c.Coord, sc.ws, ts)
	c.WriteLog(p, &sc.Scratch, WriteShards(c.DB.Pool, sc.ws), sc.LogBuf)
}

// install publishes every locked record's working copy on every replica
// and releases its lock, all in one round-trip (delivery order makes the
// data visible before the unlock).
func (c *Strict[X]) install(p *sim.Proc, sc *strictScratch[X], ts uint64) {
	db := c.DB
	sc.Bat.Begin()
	for _, w := range sc.ws {
		if !w.Locked {
			continue
		}
		sc.Ops = c.fmt.Install(p, &c.Coord, w, ts, &sc.Arena, sc.Ops[:0])
		sc.Nodes = db.Pool.AppendReplicaNodes(sc.Nodes[:0], w.Table, w.Key)
		for _, n := range sc.Nodes {
			bi := sc.Bat.Batch(n.Region)
			for _, op := range sc.Ops {
				sc.Bat.Append(bi, op)
			}
			if n == w.Primary {
				sc.Bat.Append(bi, c.fmt.UnlockOp(&c.Coord, w))
			}
		}
	}
	post(p, sc.Bat.Batches())
	why := db.Obs.WhyID(p)
	for _, w := range sc.ws {
		if !w.Locked {
			continue
		}
		conf := c.conflict(w)
		conf.Release(w.owner)
		conf.Update(ts, why, layout.LockMask(w.Op.WriteCells))
		db.Obs.LockReleased(p, w.Table, w.Key, w.Lock)
		w.Locked = false
	}
}
