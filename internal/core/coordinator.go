package core

import (
	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Coordinator executes CREST transactions. Each coordinator belongs to
// one compute node and one simulated process.
type Coordinator struct {
	engine.Coord
	cn *ComputeNode
	// strict runs the attempts of a system that is not localized (the
	// Base and +Cell variants) over the same log segment.
	strict *engine.Strict[drec]
	scFree engine.FreeList[execScratch]
}

// NewCoordinator creates coordinator id (globally unique across
// compute nodes).
func (cn *ComputeNode) NewCoordinator(id int) *Coordinator {
	c := &Coordinator{Coord: engine.NewCoord(cn.db, cn.cache, id), cn: cn}
	if !cn.sys.opts.Localized {
		c.strict = engine.NewStrict(c.Coord, format{cn.sys})
	}
	cn.sys.logs = append(cn.sys.logs, recoveryLog{seg: c.Log, nodes: c.LogN})
	return c
}

// valCheck is one cell read that must be validated against the memory
// pool at commit.
//
// Base-value reads capture the expected epoch/timestamp at read time:
// no local writer of the cell can commit (and thus no write-back can
// move the pool) before this reader resolves, so the captured value is
// exactly what the pool must still hold — and it stays correct even if
// the record cache refetches the record meanwhile.
//
// Local-version reads (live == true) instead compare against the
// record cache's current epoch view at validation time: the version's
// chain may legitimately fold into the pool before this reader
// validates, advancing pool and cache in lockstep, while any foreign
// write diverges the two. readV remembers which version was read so
// the commit-time supersede check (validateLocal) can detect a local
// writer that committed in between.
type valCheck struct {
	cell  int
	en    uint16
	ts    uint64
	live  bool
	readV *version // nil for base reads
}

// access is the per-record state of one attempt.
type access struct {
	engine.RecBase
	lay           *layout.Record
	obj           *object
	intentWrite   bool
	registered    bool // reference counted on obj
	streakCounted bool // counted toward the object's piggyback streak
	checks        []valCheck
}

// depSet is an insertion-ordered set of transactions to wait on. The
// handful of dependencies a transaction collects makes a linear scan
// cheaper than a map.
type depSet struct {
	list []*txnState
}

func (d *depSet) add(t *txnState) {
	for _, s := range d.list {
		if s == t {
			return
		}
	}
	d.list = append(d.list, t)
}

// Execute runs one attempt of t; the caller owns retry and backoff.
func (c *Coordinator) Execute(p *sim.Proc, t *engine.Txn) engine.Attempt {
	if c.strict != nil {
		return c.strict.Execute(p, t)
	}
	return c.executeLocalized(p, t)
}

// executeLocalized is the full CREST path: record cache, pipelined
// execution, dependency tracking and parallel commits.
func (c *Coordinator) executeLocalized(p *sim.Proc, t *engine.Txn) engine.Attempt {
	db := c.cn.db
	at := engine.BeginAttempt(db, p, c.GID, c.Home, t)
	sc := c.scFree.Get()
	if sc == nil {
		sc = &execScratch{Scratch: c.NewScratch()}
	}
	sc.reset()
	defer c.scFree.Put(sc)

	me := newTxnState(c.cn.db.NextTxnID(), at.WhyID(), t.NumWriteCells())
	at.Span().SetTxn(me.id)
	// deps are the creators of versions this transaction read or
	// overwrote (§5.1): it commits only after they commit, and aborts
	// with them.
	deps := &sc.deps

	// No CREST abort is a false conflict: a lost masked CAS covers only
	// its write cells, a locked or torn fetch only its read cells, a failed
	// check the one cell read. On a RecordLevelTables table the verb cannot
	// name the holder's cells: unattributed, which is never false either.
	abortTxn := func(reason engine.AbortReason) engine.Attempt {
		at.Fail(reason, false)
		me.resolve(txnAborted, 0)
		c.applyRelease(p, sc, sc.accs)
		return at.Done()
	}

	// --- Execution phase: pipelined blocks (§5.2). ---
	for bi := range t.Blocks {
		blk := &t.Blocks[bi]
		if gated := c.prepare(p, t, blk, sc); gated {
			return abortTxn(engine.AbortWait)
		}
		if db.Pool.Shards() > 1 && engine.WriteShards(db.Pool, sc.accs).Beyond(c.Home) {
			at.MarkCrossShard()
		}
		at.Phase(trace.PhaseLock)
		admitReason := c.admit(p, sc, sc.blockAccs)
		at.Phase(trace.PhaseExec)
		if admitReason != engine.AbortNone {
			return abortTxn(admitReason)
		}
		// Charge the block's compute-node CPU cost (hook execution,
		// copies) before taking any local lock: the computation does
		// not need the locks, and paying it inside the critical
		// section would convoy every hot record's local queue.
		var blockCost sim.Duration
		for oi := range blk.Ops {
			op := &blk.Ops[oi]
			blockCost += db.Cost.OpCost(len(op.ReadCells) + len(op.WriteCells))
		}
		p.Sleep(blockCost)
		// Inner-block 2PL: local locks in (TableID, Key) order. The
		// critical section itself is pure bookkeeping (zero virtual
		// time), so the locks only order concurrent accessors.
		locked := append(sc.lockOrder[:0], sc.blockAccs...)
		sc.lockOrder = locked
		engine.SortRecs(locked)
		for _, acc := range locked {
			if acc.obj.mu.Held() {
				// The lock-wait depth gauge counts coordinators about to
				// park behind a held local lock; an uncontended Lock
				// never parks and stays off the gauge.
				db.Obs.LockWaiters(1)
				holder := acc.obj.whyOwner
				t0 := p.Now()
				acc.obj.mu.Lock(p)
				db.Obs.LockWaiters(-1)
				db.Obs.WaitedLocal(p, acc.Table, acc.Key, holder, p.Now().Sub(t0))
			} else {
				acc.obj.mu.Lock(p)
			}
			acc.obj.whyOwner = me.whyID
		}
		if me.tsExec == 0 {
			// TS_exec is assigned after the first block's local locks
			// are acquired (§5.2).
			me.tsExec = c.cn.nextTSExec()
		}
		reason := engine.AbortNone
		for _, acc := range sc.blockAccs { // program order
			if reason = c.execOp(p, t, me, acc, deps); reason != engine.AbortNone {
				break
			}
		}
		for _, acc := range locked {
			acc.obj.whyOwner = 0
			acc.obj.mu.Unlock()
		}
		if reason != engine.AbortNone {
			return abortTxn(reason)
		}
	}

	// --- Validation (§6): dependencies first, then remote epochs,
	// then the local supersede check immediately before the commit
	// timestamp is drawn (no yield in between, so the serial position
	// is exact). ---
	at.Phase(trace.PhaseValidate)
	for _, dep := range deps.list {
		waited := dep.status == txnPending
		t0 := p.Now()
		dep.await(p)
		if waited {
			db.Obs.WaitedDependency(p, dep.whyID, p.Now().Sub(t0))
		}
		if dep.status == txnAborted {
			return abortTxn(engine.AbortDependency)
		}
	}
	if reason := c.validateRemote(p, sc, sc.accs, at.Start()); reason != engine.AbortNone {
		return abortTxn(reason)
	}
	if !c.validateLocal(sc.accs) {
		return abortTxn(engine.AbortValidation)
	}

	// --- Commit (§6): timestamp, redo log, then parallel apply. ---
	at.Phase(trace.PhaseLog)
	ts := db.TSO.Next()
	me.tsAssigned = ts
	c.writeRedoLog(p, sc, me, ts, sc.accs, deps)
	me.resolve(txnCommitted, ts)
	at.Phase(trace.PhaseApply)
	c.applyRelease(p, sc, sc.accs)
	engine.CommitRecs(&db.Obs, p, engine.HTxn{TS: ts}, sc.accs)
	return at.Done()
}

// prepare resolves the block's keys into accesses (sc.blockAccs),
// creating local objects, sitting out any pending release windows, and
// pinning the objects with reference counts. A writer reference
// registered while a drain is pending would itself keep `writers`
// above zero and stall the drain, so gating happens strictly before
// registration. Until then the objects are held with no reference,
// across the parks of passes 1 (an address-cache miss) and 2, and
// another coordinator may retire them meanwhile; the pin keeps such a
// shell from being reused under this one's feet.
func (c *Coordinator) prepare(p *sim.Proc, t *engine.Txn, blk *engine.Block, sc *execScratch) (gated bool) {
	// Pass 1: resolve keys and local objects; no references yet.
	sc.blockAccs = sc.blockAccs[:0]
	for oi := range blk.Ops {
		op := &blk.Ops[oi]
		rk := engine.RecKey{Table: op.Table, Key: op.ResolveKey(t.State)}
		if engine.FindRec(sc.accs, rk) != nil || engine.FindRec(sc.blockAccs, rk) != nil {
			panic(engine.DuplicateRecord(rk))
		}
		// The recycled entry keeps its ReadVals / checks backing arrays.
		acc := sc.slab.Next()
		*acc = access{
			RecBase:     engine.RecBase{Op: op, RecKey: rk, ReadVals: acc.ReadVals[:0]},
			lay:         c.cn.sys.layouts[op.Table],
			intentWrite: op.IsWrite(),
			checks:      acc.checks[:0],
		}
		acc.obj = c.getOrCreate(p, rk, acc.lay)
		acc.obj.pins++
		acc.Primary = acc.obj.primary
		sc.blockAccs = append(sc.blockAccs, acc)
	}
	// Pass 2: sit out release windows on every write target. Waiting
	// is only safe while this transaction holds nothing (its first
	// block): holding references while waiting can deadlock pipelines
	// against each other, so later blocks abort instead and retry.
	for {
		waited := false
		for _, acc := range sc.blockAccs {
			obj := acc.obj
			if !acc.intentWrite || (!obj.drainPending && obj.drainUntil <= p.Now()) {
				continue
			}
			if len(sc.accs) > 0 {
				for _, held := range sc.blockAccs {
					c.cn.unpin(held.obj)
				}
				return true
			}
			waited = true
			if obj.drainPending {
				obj.stateQ.Wait(p)
			} else {
				p.Sleep(sim.Duration(obj.drainUntil - p.Now()))
			}
		}
		if !waited {
			break
		}
	}
	// Pass 3: register the reference counts (§5.1), which take over from
	// the pins.
	for _, acc := range sc.blockAccs {
		if acc.intentWrite {
			acc.obj.writers++
		} else {
			acc.obj.readers++
		}
		c.cn.unpin(acc.obj)
		acc.registered = true
		sc.accs = append(sc.accs, acc)
	}
	return false
}

// getOrCreate returns the record's local object, creating it (and
// resolving its pool address) on first access.
func (c *Coordinator) getOrCreate(p *sim.Proc, rk engine.RecKey, lay *layout.Record) *object {
	if obj, ok := c.cn.objs[rk]; ok {
		return obj
	}
	primary, off := c.Resolve(p, rk)
	obj := c.cn.newObject(rk, off, lay, primary)
	c.cn.objs[rk] = obj
	return obj
}

// admit performs cache admission (§5.1) for the block's accesses: it
// fetches uncached records and acquires the missing remote cell locks,
// batching everything per memory node into one round-trip. Only one
// coordinator admits a given record at a time; others wait.
func (c *Coordinator) admit(p *sim.Proc, sc *execScratch, blockAccs []*access) engine.AbortReason {
	db := c.cn.db
	tries := 0
	for {
		var waitObj *object
		sc.fetches, sc.locks = sc.fetches[:0], sc.locks[:0]
		for _, acc := range blockAccs {
			obj := acc.obj
			if obj.flushing || obj.releaseReq > 0 {
				waitObj = obj
				break
			}
			if obj.admitting {
				// Readers with an admitted base proceed against it —
				// commit-time validation handles staleness — instead
				// of serializing behind the in-flight refresh. Lock
				// acquirers and cold readers need the admission slot.
				if !obj.admitted || (acc.intentWrite &&
					c.cn.sys.lockMaskFor(acc.lay, acc.Op)&^obj.remoteLocks != 0) {
					waitObj = obj
					break
				}
				continue
			}
			if acc.intentWrite && obj.drainPending {
				// A forced release window is pending on this record;
				// abort rather than wait — waiting here while holding
				// other records' references can deadlock compute-node
				// pipelines against each other.
				return engine.AbortWait
			}
			if !obj.admitted {
				sc.fetches = append(sc.fetches, acc)
			}
			if want := c.cn.sys.lockMaskFor(acc.lay, acc.Op) &^ obj.remoteLocks; acc.intentWrite && want != 0 {
				sc.locks = append(sc.locks, acc)
			}
		}
		if waitObj != nil {
			// The admission/flush blocker is whichever coordinator is
			// inside the object's critical section; attribute the wait
			// to it when known.
			holder := waitObj.whyOwner
			t0 := p.Now()
			waitObj.stateQ.Wait(p)
			db.Obs.WaitedLocal(p, waitObj.table, waitObj.key, holder, p.Now().Sub(t0))
			continue
		}
		if len(sc.fetches) == 0 && len(sc.locks) == 0 {
			// All cached and locked; count the streaks that gate lock retention.
			for _, acc := range blockAccs {
				obj := acc.obj
				if acc.intentWrite && !acc.streakCounted {
					acc.streakCounted = true
					// streak > 0 means an earlier local txn already
					// counted against these locks: this one piggybacks.
					if obj.streak > 0 && obj.remoteLocks != 0 {
						db.Obs.Piggybacked(p, obj.table, obj.key, obj.remoteLocks)
					}
					obj.streak++
					if obj.streak >= maxPiggyback && obj.remoteLocks != 0 {
						obj.drainPending = true
					}
				}
			}
			return engine.AbortNone
		}

		// Claim and fetch/lock in one PostMulti. Every lock
		// acquisition pairs the masked-CAS with a READ (Table 2's
		// masked-CAS+READ): when the object was already cached, the
		// read refreshes the base values of the cells that were not
		// locked until now — their cached values may predate another
		// compute node's commits, and locked cells skip validation.
		sc.pend = sc.pend[:0]
		sc.Bat.Begin()
		add := func(acc *access) int {
			obj := acc.obj
			for i := range sc.pend {
				if sc.pend[i].obj == obj {
					return i
				}
			}
			sc.pend = append(sc.pend, admitPend{obj: obj, acc: acc, casIdx: -1, readIdx: -1})
			obj.admitting = true
			return len(sc.pend) - 1
		}
		for _, acc := range sc.locks {
			pi := add(acc)
			obj := acc.obj
			bits := c.cn.sys.lockMaskFor(acc.lay, acc.Op) &^ obj.remoteLocks
			bi := sc.Bat.Batch(obj.primary.Region)
			ci := sc.Bat.Append(bi, rdma.Op{
				Kind: rdma.OpMaskedCAS,
				Off:  obj.off + layout.OffLock,
				Swap: bits, Mask: bits,
			})
			pd := &sc.pend[pi]
			pd.preLocks = obj.remoteLocks
			pd.bits = bits
			pd.casIdx = ci
		}
		for _, acc := range sc.fetches {
			pi := add(acc)
			sc.pend[pi].preLocks = acc.obj.remoteLocks
		}
		for i := range sc.pend {
			pd := &sc.pend[i]
			bi := sc.Bat.Batch(pd.obj.primary.Region)
			pd.readIdx = sc.Bat.Append(bi, rdma.Op{
				Kind: rdma.OpRead,
				Off:  pd.obj.off,
				Len:  pd.acc.lay.Size(),
			})
		}
		results, err := rdma.PostMulti(p, sc.Bat.Batches())
		if err != nil {
			panic(err)
		}
		conflict := false
		for i := range sc.pend {
			pd := &sc.pend[i]
			obj := pd.obj
			bi := sc.Bat.Lookup(obj.primary.Region)
			if pd.casIdx >= 0 {
				if results[bi][pd.casIdx].OK {
					obj.remoteLocks |= pd.bits
					obj.streak = 0 // fresh acquisition opens a new window
					db.Obs.LockAcquired(p, obj.table, obj.key, pd.bits)
					if db.Obs.Why != nil {
						// The why recorder is the contention table's only
						// reader on this path.
						obj.owner = db.Tracker.Row(obj.table, obj.off).Acquire(obj.owner, db.Obs.WhyID(p), pd.bits, pd.bits)
					}
				} else {
					conflict = true
					db.Obs.LockConflict(p, obj.table, obj.key, obj.off, pd.bits)
				}
			}
			if pd.readIdx >= 0 {
				// Both checks run on the raw image; cells are decoded only
				// once the fetch is known to be usable.
				data := results[bi][pd.readIdx].Data
				h := layout.DecodeHeader(data)
				readMask := layout.LockMask(pd.acc.Op.ReadCells) &^ obj.remoteLocks
				switch {
				case h.Lock&layout.DeleteMask != 0:
					obj.admitting = false
					obj.stateQ.WakeAll()
					return engine.AbortValidation
				case !snapshotConsistent(pd.acc.lay, h, data, readMask, obj.remoteLocks):
					// Read cells locked by another compute node, or a
					// torn snapshot (§4.3): back off and refetch. The
					// object must be marked unadmitted — a lock CAS in
					// this very batch may have succeeded, and leaving
					// its cells with the pre-lock base would let a
					// writer read stale data without validation.
					obj.admitted = false
					conflict = true
					db.Obs.LockConflict(p, obj.table, obj.key, obj.off, readMask)
				case !obj.admitted:
					obj.install(&c.cn.blocks, data, &h, 0)
					obj.admitted = true
					obj.firstFetch = p.Now()
				default:
					// Refresh the base of cells this compute node did
					// not hold locked: their cached values may predate
					// other nodes' commits. Locked cells (which is
					// where local versions can exist) keep the local
					// view.
					obj.install(&c.cn.blocks, data, &h, pd.preLocks)
					obj.firstFetch = p.Now()
				}
			}
			obj.admitting = false
			obj.stateQ.WakeAll()
		}
		if !conflict {
			continue // reloop to verify nothing else is missing
		}
		tries++
		if tries > lockRetries {
			return engine.AbortLockFail
		}
		back := lockPause(p)
		p.Sleep(back)
		db.Obs.BackedOff(p, back)
	}
}

// execOp runs one op against the record cache under the block's local
// locks: reads observe the newest live version (or the base value),
// writes append versions tagged with TS_exec, and reverse orderings
// abort (§5.2).
func (c *Coordinator) execOp(p *sim.Proc, t *engine.Txn, me *txnState, acc *access, deps *depSet) engine.AbortReason {
	obj := acc.obj
	op := acc.Op

	myLocks := c.cn.sys.lockMaskFor(acc.lay, op)
	read := acc.ReadVals[:0]
	for _, cell := range op.ReadCells {
		v, val := obj.latest(cell)
		cs := &obj.cells[cell]
		if v != nil && v.txn != me {
			if v.tsExec > me.tsExec {
				return engine.AbortReverse
			}
			if v.txn.status == txnPending {
				deps.add(v.txn)
			}
		}
		if myLocks&(1<<uint(cell)) == 0 {
			// Not covered by this transaction's own write locks: the
			// cell joins the commit-time validation set (§6).
			ck := valCheck{cell: cell, live: v != nil, readV: v}
			if v == nil {
				ck.en = obj.epochs[cell]
				ck.ts = obj.baseVer[cell].TS
			}
			acc.checks = append(acc.checks, ck)
		}
		if me.tsExec > cs.maxReadTS {
			cs.maxReadTS = me.tsExec
		}
		read = append(read, val)
	}
	acc.ReadVals = read

	written := op.RunHook(c.cn.sys.Name(), t.State, read, acc.lay.Schema.CellSizes)
	acc.WriteVals = written

	for i, cell := range op.WriteCells {
		cs := &obj.cells[cell]
		if cs.maxReadTS > me.tsExec {
			// A later transaction already read this cell; our write
			// arrives too late in TS_exec order (Fig 10, write side).
			return engine.AbortReverse
		}
		v := cs.newestLive()
		switch {
		case v != nil && v.txn == me:
			v.value = written[i]
			continue
		case v != nil:
			if v.tsExec > me.tsExec {
				return engine.AbortReverse
			}
			if v.txn.status == txnPending {
				deps.add(v.txn)
			}
		}
		obj.append(cell, me.newVersion(written[i]))
	}
	return engine.AbortNone
}

// validateLocal is the commit-time supersede check: for every read
// cell, the value observed must still be the newest committed state of
// the record cache. A local writer that committed after the read (and
// thus holds an earlier commit timestamp than this transaction is
// about to draw) supersedes it. It runs with no yield between it and
// the TSO draw, so the outcome is exact.
func (c *Coordinator) validateLocal(accs []*access) bool {
	for _, acc := range accs {
		for _, ck := range acc.checks {
			cs := &acc.obj.cells[ck.cell]
			if ck.readV == nil {
				// Base read: a fold moved the base, or a committed
				// version now shadows it.
				if acc.obj.baseVer[ck.cell].TS != ck.ts {
					return false
				}
				for _, v := range cs.versions {
					if v.txn.tsAssigned != 0 {
						return false
					}
				}
				continue
			}
			// Version read: the creator resolved before this point
			// (dependency wait). The version must still be the newest
			// committed one — no committed successor in the list, and
			// if it was folded, it must be what the base now holds.
			if ck.readV.txn.status != txnCommitted {
				return false
			}
			inList := false
			for _, v := range cs.versions {
				if v == ck.readV {
					inList = true
					break
				}
			}
			if inList {
				// Committed successors after readV supersede the read.
				past := false
				for _, v := range cs.versions {
					if v == ck.readV {
						past = true
						continue
					}
					if past && v.txn.tsAssigned != 0 {
						return false
					}
				}
			} else {
				// Folded: the base must hold exactly this version and
				// no committed successor may sit in the list.
				if acc.obj.baseVer[ck.cell].TS != ck.readV.txn.tsCommit {
					return false
				}
				for _, v := range cs.versions {
					if v.txn.tsAssigned != 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// validateRemote checks every base read of an unlocked cell against
// the memory pool: one header READ per record, batched per node. Past
// the EN threshold it reads whole records and compares commit
// timestamps instead (§4.2).
func (c *Coordinator) validateRemote(p *sim.Proc, sc *execScratch, accs []*access, attemptStart sim.Time) engine.AbortReason {
	db := c.cn.db
	fallback := p.Now().Sub(attemptStart) > c.cn.sys.opts.ENThreshold
	sc.Bat.Begin()
	for i := range sc.batchAccs {
		sc.batchAccs[i] = sc.batchAccs[i][:0]
	}
	for _, acc := range accs {
		if len(acc.checks) == 0 {
			continue
		}
		obj := acc.obj
		bi := sc.Bat.Batch(obj.primary.Region)
		for bi >= len(sc.batchAccs) {
			sc.batchAccs = append(sc.batchAccs, nil)
		}
		n := layout.HeaderSize
		if fallback {
			n = acc.lay.Size()
		}
		sc.Bat.Append(bi, rdma.Op{Kind: rdma.OpRead, Off: obj.off, Len: n})
		sc.batchAccs[bi] = append(sc.batchAccs[bi], acc)
	}
	batches := sc.Bat.Batches()
	if len(batches) == 0 {
		return engine.AbortNone
	}
	results, err := rdma.PostMulti(p, batches)
	if err != nil {
		panic(err)
	}
	for bi := range batches {
		for ri, acc := range sc.batchAccs[bi] {
			data := results[bi][ri].Data
			h := layout.DecodeHeader(data)
			obj := acc.obj
			otherLocks := h.Lock &^ obj.remoteLocks &^ layout.DeleteMask
			for _, ck := range acc.checks {
				wantEN, wantTS := ck.en, ck.ts
				if ck.live {
					wantEN, wantTS = obj.epochs[ck.cell], obj.baseVer[ck.cell].TS
				}
				bit := uint64(1) << uint(ck.cell)
				ok := otherLocks&bit == 0
				if ok {
					if fallback {
						ok = layout.GetCellVersion(data[acc.lay.CellOff(ck.cell):]).TS == wantTS
					} else {
						ok = h.EN[ck.cell] == wantEN
					}
				}
				if ok {
					continue
				}
				// Force a refetch only when the cache itself is behind
				// the pool — a reader whose own capture is outdated
				// must abort, but invalidating an already-refreshed
				// shared object would put every local accessor into a
				// refetch storm.
				if h.EN[ck.cell] != obj.epochs[ck.cell] &&
					p.Now().Sub(obj.firstFetch) > fetchTTL {
					obj.admitted = false
				}
				db.Obs.ValidationConflict(p, acc.Table, acc.Key, obj.off, bit, wantTS)
				return engine.AbortValidation
			}
		}
	}
	return engine.AbortNone
}

// writeRedoLog persists the dependency-tracking redo-log entry to the
// coordinator's log replicas (§6). Transactions that wrote nothing skip
// the log.
func (c *Coordinator) writeRedoLog(p *sim.Proc, sc *execScratch, me *txnState, ts uint64, accs []*access, deps *depSet) {
	sc.depIDs = sc.depIDs[:0]
	for _, d := range deps.list {
		sc.depIDs = append(sc.depIDs, d.id)
	}
	e := beginLogEntry(sc.LogBuf[:0], me.id, ts, sc.depIDs)
	for _, acc := range accs {
		if len(acc.Op.WriteCells) > 0 {
			e.written(&acc.RecBase)
		}
	}
	if e.recs == 0 {
		return
	}
	sc.LogBuf = e.end()
	c.WriteLog(p, &sc.Scratch, engine.WriteShards(c.cn.db.Pool, accs), sc.LogBuf)
}

// applyRelease ends the transaction's participation in its objects:
// reference counts drop, the last writer of each object writes the
// newest committed cell values back (last-writer-wins, §6), and the
// last reference releases the remote locks and destroys the object.
func (c *Coordinator) applyRelease(p *sim.Proc, sc *execScratch, accs []*access) {
	db := c.cn.db
	for _, acc := range accs {
		if !acc.registered {
			continue
		}
		acc.registered = false
		if acc.intentWrite {
			acc.obj.writers--
		} else {
			acc.obj.readers--
		}
	}

	c.cn.scanGen++
	g := c.cn.scanGen
	objs := sc.objs[:0]
	for _, acc := range accs {
		if acc.obj.scanGen != g {
			acc.obj.scanGen = g
			objs = append(objs, acc.obj)
		}
	}
	sc.objs = objs
	// Triage: most objects need nothing from this transaction (a later
	// writer will flush, or the object is unlocked and still
	// referenced) and must not wait behind hot-object admission
	// traffic — that tax would serialize the whole read path.
	work := sc.work[:0]
	for _, obj := range objs {
		if obj.writers > 0 {
			continue // a later writer will flush and release
		}
		if obj.remoteLocks == 0 {
			if obj.refTotal() == 0 && !obj.flushing && !obj.admitting {
				c.cn.retire(obj)
			}
			continue
		}
		// Pinned until the deferred wake below: the waits and the flush
		// round-trip park with these objects in hand, and this
		// transaction's references to them are already gone.
		obj.pins++
		work = append(work, obj)
	}
	sc.work = work
	if len(work) == 0 {
		return
	}
	// Wait until none of the remaining objects is mid-admission or
	// mid-flush (each bounded by one round-trip) before claiming any:
	// skipping busy objects would leave the last writer's release —
	// and a pending drain — to chance under heavy reader refetch
	// traffic, while claiming-then-waiting would let two releasing
	// coordinators deadlock on each other's claims. releaseReq keeps
	// new admissions from barging in ahead of this release.
	for _, obj := range work {
		obj.releaseReq++
	}
	for {
		busy := false
		for _, obj := range work {
			if obj.admitting || obj.flushing {
				busy = true
				holder := obj.whyOwner
				t0 := p.Now()
				obj.stateQ.Wait(p)
				db.Obs.WaitedLocal(p, obj.table, obj.key, holder, p.Now().Sub(t0))
				break
			}
		}
		if !busy {
			break
		}
	}
	for _, obj := range work {
		obj.releaseReq--
	}
	defer func() {
		for _, obj := range work {
			if obj.releaseReq == 0 && !obj.flushing && !obj.admitting {
				obj.stateQ.WakeAll()
			}
			c.cn.unpin(obj)
		}
	}()
	sc.Bat.Begin()
	sc.fins, sc.plans = sc.fins[:0], sc.plans[:0]
	for _, obj := range work {
		if obj.writers > 0 {
			continue // a later writer registered meanwhile; it flushes
		}
		if obj.remoteLocks == 0 {
			if obj.refTotal() == 0 {
				c.cn.retire(obj)
			}
			continue
		}
		// writers == 0 with locks held: this transaction is the last
		// writer (or a reader draining a locked object). Per §6 the
		// last writer writes the newest committed values back and
		// releases the locks, even while readers remain — their reads
		// validate against the epoch numbers at commit.
		obj.flushing = true
		lo := len(sc.plans)
		sc.plans = obj.collectFlush(sc.plans)
		sc.fins = append(sc.fins, fin{obj: obj, lo: lo, hi: len(sc.plans), release: true, unlock: obj.remoteLocks})
		c.buildFlushOps(sc, &sc.fins[len(sc.fins)-1])
	}
	if batches := sc.Bat.Batches(); len(batches) > 0 {
		if _, err := rdma.PostMulti(p, batches); err != nil {
			panic(err)
		}
	}
	for i := range sc.fins {
		f := &sc.fins[i]
		obj := f.obj
		for _, plan := range sc.plans[f.lo:f.hi] {
			// A fold of more than 65536 epochs — or one landing exactly
			// on the wrap — silently reuses epoch numbers; validation
			// correctness then rests on the EN-threshold fallback, so
			// the rollover is worth a trace event.
			if before := plan.en - uint16(plan.bumps); plan.en < before {
				db.Obs.ENOverflow(p, obj.table, obj.key, plan.cell)
			}
		}
		db.Obs.LockReleased(p, obj.table, obj.key, obj.remoteLocks)
		if obj.owner != 0 {
			// Its locks are in the contention table (the why recorder
			// is on): record who wrote each cell, then end the holdings.
			row := db.Tracker.Row(obj.table, obj.off)
			for _, plan := range sc.plans[f.lo:f.hi] {
				row.Update(plan.ts, plan.why, 1<<uint(plan.cell))
			}
			row.Release(obj.owner)
		}
		obj.remoteLocks, obj.owner = 0, 0
		obj.streak = 0
		if obj.drainPending {
			obj.drainPending = false
			obj.drainUntil = p.Now().Add(drainGrace)
		}
		obj.flushing = false
		obj.stateQ.WakeAll()
		if obj.refTotal() == 0 {
			c.cn.retire(obj)
		}
	}
}

func (o *object) rkKey() engine.RecKey { return engine.RecKey{Table: o.table, Key: o.key} }

// fin is one object's pending write-back during applyRelease; its
// flush plans are execScratch.plans[lo:hi].
type fin struct {
	obj     *object
	lo, hi  int
	release bool
	unlock  uint64
}

// buildFlushOps emits the last-writer write-back for one object into
// the scratch batcher: each committed cell's version word + value, its
// header epoch number, and (when the object is quiescent) the unlock
// masked-CAS, ordered within the round-trip. Backup replicas receive
// the data writes; the lock lives on the primary.
func (c *Coordinator) buildFlushOps(sc *execScratch, f *fin) {
	obj := f.obj
	plans := sc.plans[f.lo:f.hi]
	writes := sc.Ops[:0]
	for _, plan := range plans {
		writes = appendCellWrite(writes, &sc.Arena, obj.lay, obj.off, plan.cell, layout.CellVersion{EN: plan.en, TS: plan.ts}, plan.value)
	}
	sc.Ops = writes
	sc.Nodes = c.cn.db.Pool.AppendReplicaNodes(sc.Nodes[:0], obj.table, obj.key)
	for _, n := range sc.Nodes {
		release := f.release && n == obj.primary && f.unlock != 0
		if len(plans) > 0 || release {
			bi := sc.Bat.Batch(n.Region)
			for _, op := range writes {
				sc.Bat.Append(bi, op)
			}
			if release {
				sc.Bat.Append(bi, rdma.Op{
					Kind:    rdma.OpMaskedCAS,
					Off:     obj.off + layout.OffLock,
					Compare: f.unlock,
					Swap:    0,
					Mask:    f.unlock,
				})
			}
		}
		if len(plans) == 0 {
			// Pure unlock: nothing to write on backups.
			break
		}
	}
}
