// Package motor implements the Motor baseline (Zhang, Hua, Yang,
// "Motor: Enabling Multi-Versioning for Distributed Transactions on
// Disaggregated Memory", OSDI 2024) as the CREST paper evaluates it:
// record-level optimistic concurrency control with a consecutive
// version table per record.
//
// Motor's defining traits, reproduced here:
//
//   - every record carries MotorSlots full versions plus one metadata
//     word per version, stored consecutively so no chain traversal is
//     needed;
//   - reads fetch the whole consecutive version table (header, slot
//     metadata and all version payloads) in one READ and pick the
//     visible version locally — larger payloads than the single-version
//     baselines, which is Motor's space/bandwidth trade;
//   - fully read-only transactions take a start snapshot and commit
//     without any validation round-trip: a writer holds the record
//     lock from before its commit timestamp is issued until its
//     version is installed, so a reader that retries while the lock is
//     held always observes every version older than its snapshot;
//   - read-write transactions validate their read set (version hint +
//     lock) like FORD, then install into the oldest version slot.
package motor

import (
	"encoding/binary"
	"fmt"

	"crest/internal/engine"
	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
)

const (
	logSegmentSize = 64 << 10
	// lockedReadRetries bounds how long a snapshot reader spins on a
	// locked record before aborting the attempt. The spin only needs
	// to cover a committing writer's install window (a couple of
	// round-trips); spinning across a whole lock tenure captures
	// coordinators under contention.
	lockedReadRetries = 3
)

// System is a Motor instance over a shared DB.
type System struct {
	db      *engine.DB
	layouts map[layout.TableID]*layout.MotorRecord
}

// New creates a Motor system on db.
func New(db *engine.DB) *System {
	return &System{db: db, layouts: map[layout.TableID]*layout.MotorRecord{}}
}

// Name labels the engine.
func (s *System) Name() string { return "Motor" }

// DB exposes the underlying database substrate.
func (s *System) DB() *engine.DB { return s.db }

// CreateTable registers a table with Motor's multi-version layout.
func (s *System) CreateTable(sc layout.Schema, capacity int) {
	sc = sc.Normalize()
	lay := layout.NewMotorRecord(sc)
	s.layouts[sc.ID] = lay
	s.db.CreateTable(sc, lay.PaddedSize(), capacity)
}

// Load writes a record's initial cell values into version slot 0.
func (s *System) Load(table layout.TableID, key layout.Key, cells [][]byte) {
	lay := s.layouts[table]
	t := s.db.Table(table)
	s.db.LoadRecord(t, key, func(buf []byte) {
		binary.LittleEndian.PutUint64(buf[layout.BOffKey:], uint64(key))
		binary.LittleEndian.PutUint32(buf[layout.BOffTableID:], uint32(table))
		layout.PutWord(buf, lay.SlotMetaOff(0), layout.PackSlotMeta(true, 0))
		for i, v := range cells {
			if len(v) != lay.Schema.CellSizes[i] {
				panic(fmt.Sprintf("motor: cell %d size %d, schema wants %d", i, len(v), lay.Schema.CellSizes[i]))
			}
			copy(buf[lay.SlotCellOff(0, i):], v)
		}
	})
	if h := s.db.History; h != nil && h.On {
		for i, v := range cells {
			h.SetInitial(engine.CellID{Table: table, Key: key, Cell: i}, v)
		}
	}
}

// FinishLoad publishes the hash indexes.
func (s *System) FinishLoad() error { return s.db.FinishLoad() }

// ComputeNode groups coordinators sharing an address cache. db is the
// partition view the node's coordinators run against (the root DB on
// sequential runs).
type ComputeNode struct {
	sys   *System
	db    *engine.DB
	id    int
	cache *hashindex.AddrCache
}

// NewComputeNode creates compute node state.
func (s *System) NewComputeNode(id int) *ComputeNode {
	return &ComputeNode{sys: s, db: s.db, id: id, cache: hashindex.NewAddrCache()}
}

// NewPartitionComputeNode creates compute node state bound to a
// partition view of the database.
func (s *System) NewPartitionComputeNode(id int, db *engine.DB) *ComputeNode {
	cn := s.NewComputeNode(id)
	cn.db = db
	return cn
}

// WarmCache preloads the address cache with every record.
func (cn *ComputeNode) WarmCache() { cn.db.WarmCache(cn.cache) }

// Coordinator executes Motor transactions.
type Coordinator struct {
	cn   *ComputeNode
	gid  uint64
	qps  *engine.QPCache
	log  *memnode.LogSegment
	logN []*memnode.Node
	home int // shard group holding the log (commit decision)
	// scFree recycles attempt scratch (see execScratch).
	scFree []*execScratch
}

// NewCoordinator creates coordinator id (globally unique).
func (cn *ComputeNode) NewCoordinator(id int) *Coordinator {
	db := cn.db
	pool := db.Pool
	c := &Coordinator{
		cn:  cn,
		gid: uint64(id) + 1,
		qps: engine.NewQPCache(db.Fabric),
		log: pool.AllocLog(logSegmentSize),
	}
	c.qps.Warm(pool)
	c.logN = pool.LogNodes(id, pool.Replicas()+1)
	c.home = pool.ShardOfNode(c.logN[0].ID)
	return c
}

// writeShards returns the shard groups of every written record in ws.
func (c *Coordinator) writeShards(ws []*work) engine.ShardSet {
	pool := c.cn.db.Pool
	var parts engine.ShardSet
	for _, w := range ws {
		if w.op.IsWrite() {
			parts.Add(pool.ShardOfNode(w.primary.ID))
		}
	}
	return parts
}

type recKey struct {
	table layout.TableID
	key   layout.Key
}

// work is per-record attempt state.
type work struct {
	op        *engine.Op
	key       layout.Key
	rk        recKey
	off       uint64
	lay       *layout.MotorRecord
	primary   *memnode.Node
	slot      int    // version slot read
	victim    int    // slot to install into
	readVer   uint64 // newest ts observed at fetch
	data      []byte // working copy of one version's cell data
	locked    bool
	cells     uint64
	readVals  [][]byte
	writeVals [][]byte
}

func (w *work) table() layout.TableID { return w.lay.Schema.ID }

// Execute runs one attempt of t.
func (c *Coordinator) Execute(p *sim.Proc, t *engine.Txn) engine.Attempt {
	db := c.cn.db
	at := engine.BeginAttempt(db, p, c.gid, c.home, t)

	var snapshot uint64
	if t.ReadOnly {
		snapshot = db.TSO.Last() // start timestamp for MVCC reads
	}

	sc := c.getScratch()
	defer c.putScratch(sc)
	for bi := range t.Blocks {
		blk := &t.Blocks[bi]
		newWork := c.prepareBlock(p, t, blk, sc)
		sc.ws = append(sc.ws, newWork...)
		if db.Pool.Shards() > 1 && c.writeShards(sc.ws).Beyond(c.home) {
			at.MarkCrossShard()
		}
		at.Phase(trace.PhaseLock)
		abort, falseC := c.fetchBlock(p, sc, newWork, t.ReadOnly, snapshot)
		at.Phase(trace.PhaseExec)
		if abort != engine.AbortNone {
			// Release before Fail: Motor has always charged abort-time
			// lock release to the phase that failed.
			c.releaseLocks(p, sc, sc.ws)
			at.Fail(abort, falseC)
			return at.Done()
		}
		for oi := range blk.Ops {
			op := &blk.Ops[oi]
			w := findWork(sc.ws, recKey{op.Table, op.ResolveKey(t.State)})
			c.applyOp(p, t, sc, op, w)
		}
	}

	if t.ReadOnly {
		// Snapshot reads commit without validation (§ package doc).
		c.record(t, sc.ws, db.TSO.Next(), true, snapshot)
		return at.Done()
	}

	at.Phase(trace.PhaseValidate)
	if abort, falseC := c.validate(p, sc, sc.ws); abort != engine.AbortNone {
		c.releaseLocks(p, sc, sc.ws)
		at.Fail(abort, falseC)
		return at.Done()
	}

	at.Phase(trace.PhaseLog)
	ts := db.TSO.Next()
	c.writeLog(p, sc, sc.ws, ts)
	at.Phase(trace.PhaseApply)
	c.install(p, sc, sc.ws, ts)
	c.record(t, sc.ws, ts, false, 0)
	return at.Done()
}

// prepareBlock resolves keys into work entries, ordered by (table,
// key).
func (c *Coordinator) prepareBlock(p *sim.Proc, t *engine.Txn, blk *engine.Block, sc *execScratch) []*work {
	db := c.cn.db
	sc.block = sc.block[:0]
	for oi := range blk.Ops {
		op := &blk.Ops[oi]
		key := op.ResolveKey(t.State)
		rk := recKey{op.Table, key}
		prev := findWork(sc.ws, rk)
		if prev == nil {
			prev = findWork(sc.block, rk)
		}
		if prev != nil {
			if op.IsWrite() && !prev.locked {
				panic(fmt.Sprintf("motor: record %v written after read-only fetch", rk))
			}
			prev.cells |= opCellMask(op)
			continue
		}
		lay := c.cn.sys.layouts[op.Table]
		primary := db.Pool.PrimaryOf(op.Table, key)
		off, err := db.ResolveAddr(p, c.cn.cache, c.qps.Get(primary.Region), op.Table, key)
		if err != nil {
			panic(err)
		}
		w := sc.newWork()
		w.op, w.key, w.rk, w.off, w.lay, w.primary, w.cells = op, key, rk, off, lay, primary, opCellMask(op)
		sc.block = append(sc.block, w)
	}
	sortWorks(sc.block)
	return sc.block
}

// sortWorks orders records by (TableID, Key). The order is total
// (duplicate records merge into their first work entry above), so the
// insertion sort matches the previous sort.Slice byte for byte.
func sortWorks(ws []*work) {
	for i := 1; i < len(ws); i++ {
		w := ws[i]
		j := i - 1
		for j >= 0 && workLess(w, ws[j]) {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = w
	}
}

func workLess(a, b *work) bool {
	if a.table() != b.table() {
		return a.table() < b.table()
	}
	return a.key < b.key
}

func opCellMask(op *engine.Op) uint64 {
	return layout.LockMask(op.ReadCells) | layout.LockMask(op.WriteCells)
}

// fetchBlock reads the block's records, batched per memory node into
// one round-trip: the consecutive version table lets one READ return
// the header, every version's metadata and every version's data, so
// the coordinator picks the visible version locally — no chain
// traversal, which is exactly Motor's layout argument. Writes prepend
// the lock CAS to the same batch. Snapshot reads that land on a locked
// record (a committing writer's install may be in flight) retry
// briefly.
func (c *Coordinator) fetchBlock(p *sim.Proc, sc *execScratch, ws []*work, snapshotRead bool, snapshot uint64) (engine.AbortReason, bool) {
	if len(ws) == 0 {
		return engine.AbortNone, false
	}
	db := c.cn.db
	todo := append(sc.todo[:0], ws...)
	sc.todo = todo
	for retry := 0; ; retry++ {
		sc.bat.Begin()
		sc.slots = sc.slots[:0]
		for _, w := range todo {
			bi := sc.bat.Batch(w.primary.Region)
			sc.slots = append(sc.slots, mslot{w: w, casIdx: -1})
			s := &sc.slots[len(sc.slots)-1]
			if w.op.IsWrite() && !w.locked {
				s.casIdx = sc.bat.Append(bi, rdma.Op{
					Kind: rdma.OpCAS, Off: w.off + layout.BOffLock, Compare: 0, Swap: c.gid,
				})
			}
			s.rdIdx = sc.bat.Append(bi, rdma.Op{Kind: rdma.OpRead, Off: w.off, Len: w.lay.Size()})
		}
		results, err := rdma.PostMulti(p, sc.bat.Batches())
		if err != nil {
			panic(err)
		}
		again := sc.retry[:0]
		lockFailed := false
		var conflictMask, myMask uint64
		for si := range sc.slots {
			s := &sc.slots[si]
			w := s.w
			bi := sc.bat.Lookup(w.primary.Region)
			if s.casIdx >= 0 {
				if results[bi][s.casIdx].OK {
					w.locked = true
					db.Tracker.OnLock(w.table(), w.key, w.cells)
					db.Obs.LockAcquired(p, w.table(), w.key, w.cells)
				} else {
					lockFailed = true
					conflictMask |= db.Tracker.HolderCells(w.table(), w.key)
					myMask |= w.cells
					db.Obs.LockConflict(p, w.table(), w.key, w.cells)
					continue
				}
			}
			rec := results[bi][s.rdIdx].Data
			lockWord := binary.LittleEndian.Uint64(rec[layout.BOffLock:])
			if snapshotRead && lockWord != 0 {
				again = append(again, w)
				conflictMask |= db.Tracker.HolderCells(w.table(), w.key)
				myMask |= w.cells
				db.Obs.LockConflict(p, w.table(), w.key, w.cells)
				continue
			}
			slot, victim, newest, found := chooseSlots(rec, w.lay, snapshotRead, snapshot)
			if !found {
				// Every version is newer than our snapshot: the
				// history we need has been overwritten.
				return engine.AbortValidation, false
			}
			w.slot, w.victim, w.readVer = slot, victim, newest
			dataLen := w.lay.Schema.DataBytes()
			w.data = append(w.data[:0], rec[w.lay.SlotDataOff(slot):w.lay.SlotDataOff(slot)+dataLen]...)
		}
		sc.retry = again
		if lockFailed {
			return engine.AbortLockFail, engine.IsFalseConflict(myMask, conflictMask)
		}
		if len(again) == 0 {
			return engine.AbortNone, false
		}
		if retry >= lockedReadRetries {
			return engine.AbortLockFail, engine.IsFalseConflict(myMask, conflictMask)
		}
		// Ping-pong the two retained backings: the current todo list
		// becomes the next round's retry accumulator and vice versa.
		sc.todo, sc.retry = again, todo[:0]
		todo = again
		p.Sleep(2 * sim.Microsecond)
		db.Obs.BackedOff(p, 2*sim.Microsecond)
	}
}

// chooseSlots picks the version to read (newest visible) and the slot
// to overwrite on install (oldest or invalid).
func chooseSlots(meta []byte, lay *layout.MotorRecord, snapshotRead bool, snapshot uint64) (slot, victim int, newest uint64, found bool) {
	slot, victim = -1, -1
	var bestTS, victimTS uint64
	victimTS = ^uint64(0)
	for i := 0; i < layout.MotorSlots; i++ {
		valid, ts := layout.UnpackSlotMeta(binary.LittleEndian.Uint64(meta[lay.SlotMetaOff(i):]))
		if !valid {
			victim, victimTS = i, 0
			continue
		}
		if ts > newest {
			newest = ts
		}
		if snapshotRead && ts > snapshot {
			continue
		}
		if slot == -1 || ts >= bestTS {
			slot, bestTS = i, ts
		}
		if ts < victimTS {
			victim, victimTS = i, ts
		}
	}
	return slot, victim, newest, slot != -1
}

// applyOp runs the op's hook against the working copy of the version
// data. Read copies live in the attempt arena: hooks may retain them
// only for the attempt (record consumes them before the scratch is
// recycled).
func (c *Coordinator) applyOp(p *sim.Proc, t *engine.Txn, sc *execScratch, op *engine.Op, w *work) {
	db := c.cn.db
	read := w.readVals[:0]
	for _, cell := range op.ReadCells {
		src := w.data[w.cellOff(cell):][:w.lay.Schema.CellSizes[cell]]
		b := sc.bytes(len(src))
		copy(b, src)
		read = append(read, b)
	}
	p.Sleep(db.Cost.OpCost(len(op.ReadCells) + len(op.WriteCells)))
	written := op.Hook(t.State, read)
	if len(written) != len(op.WriteCells) {
		panic(fmt.Sprintf("motor: hook returned %d values for %d write cells", len(written), len(op.WriteCells)))
	}
	for i, cell := range op.WriteCells {
		if len(written[i]) != w.lay.Schema.CellSizes[cell] {
			panic("motor: hook wrote wrong cell size")
		}
		copy(w.data[w.cellOff(cell):], written[i])
	}
	w.readVals = read
	w.writeVals = written
}

// cellOff is the offset of a cell within the version-data working
// copy.
func (w *work) cellOff(cell int) int {
	off := 0
	for j := 0; j < cell; j++ {
		off += w.lay.Schema.CellSizes[j]
	}
	return off
}

// validate re-reads lock+version hint of read-only records, batched
// per node.
func (c *Coordinator) validate(p *sim.Proc, sc *execScratch, ws []*work) (engine.AbortReason, bool) {
	db := c.cn.db
	sc.bat.Begin()
	for i := range sc.batchW {
		sc.batchW[i] = sc.batchW[i][:0]
	}
	metaLen := layout.MotorSlots * layout.MotorSlotMetaSize
	for _, w := range ws {
		if w.locked {
			continue
		}
		bi := sc.bat.Batch(w.primary.Region)
		for bi >= len(sc.batchW) {
			sc.batchW = append(sc.batchW, nil)
		}
		sc.bat.Append(bi, rdma.Op{
			Kind: rdma.OpRead,
			Off:  w.off + layout.BOffLock,
			Len:  8 + 8 + metaLen, // lock + version hint + slot metas
		})
		sc.batchW[bi] = append(sc.batchW[bi], w)
	}
	batches := sc.bat.Batches()
	if len(batches) == 0 {
		return engine.AbortNone, false
	}
	results, err := rdma.PostMulti(p, batches)
	if err != nil {
		panic(err)
	}
	for bi := range batches {
		for ri, w := range sc.batchW[bi] {
			data := results[bi][ri].Data
			lock := binary.LittleEndian.Uint64(data)
			newest := uint64(0)
			for i := 0; i < layout.MotorSlots; i++ {
				valid, ts := layout.UnpackSlotMeta(binary.LittleEndian.Uint64(data[16+i*8:]))
				if valid && ts > newest {
					newest = ts
				}
			}
			if lock == 0 && newest == w.readVer {
				continue
			}
			var conflicting uint64
			if lock != 0 {
				conflicting = db.Tracker.HolderCells(w.table(), w.key)
			}
			if newest != w.readVer {
				conflicting |= db.Tracker.ChangedSince(w.table(), w.key, w.readVer)
			}
			db.Obs.ValidationConflict(p, w.table(), w.key, w.cells, w.readVer)
			return engine.AbortValidation, engine.IsFalseConflict(w.cells, conflicting)
		}
	}
	return engine.AbortNone, false
}

// releaseLocks frees held locks in one round-trip.
func (c *Coordinator) releaseLocks(p *sim.Proc, sc *execScratch, ws []*work) {
	db := c.cn.db
	sc.bat.Begin()
	for _, w := range ws {
		if !w.locked {
			continue
		}
		bi := sc.bat.Batch(w.primary.Region)
		sc.bat.Append(bi, rdma.Op{
			Kind: rdma.OpCAS, Off: w.off + layout.BOffLock, Compare: c.gid, Swap: 0,
		})
		db.Tracker.OnUnlock(w.table(), w.key, w.cells)
		db.Obs.LockReleased(p, w.table(), w.key, w.cells)
		w.locked = false
	}
	batches := sc.bat.Batches()
	if len(batches) == 0 {
		return
	}
	if _, err := rdma.PostMulti(p, batches); err != nil {
		panic(err)
	}
}

// writeLog persists the redo images (Motor logs new versions; MVCC
// needs no undo) in one round-trip.
func (c *Coordinator) writeLog(p *sim.Proc, sc *execScratch, ws []*work, ts uint64) {
	n := 0
	for _, w := range ws {
		if w.locked {
			n++
		}
	}
	if n == 0 {
		return
	}
	buf := sc.logBuf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, w := range ws {
		if !w.locked {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.table()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.key))
		buf = append(buf, w.data...)
	}
	sc.logBuf = buf
	off := c.log.Reserve(len(buf))
	// Cross-shard commits pay a prepare round first: the entry lands
	// on every other participating group's log mirrors before the
	// home group's decision write below.
	if parts := c.writeShards(ws); parts.Beyond(c.home) {
		engine.PrepareCrossShard(p, c.cn.db, c.qps, c.logN, c.home, parts, off, buf)
	}
	// Distinct batches per replica even when log nodes share a region:
	// merging them would change the fabric's batch count.
	if cap(sc.logBatches) < len(c.logN) {
		sc.logBatches = make([]rdma.Batch, len(c.logN))
	}
	sc.logBatches = sc.logBatches[:len(c.logN)]
	for i, nn := range c.logN {
		sc.logBatches[i].QP = c.qps.Get(nn.Region)
		sc.logBatches[i].Ops = append(sc.logBatches[i].Ops[:0], rdma.Op{Kind: rdma.OpWrite, Off: off, Data: buf})
	}
	if _, err := rdma.PostMulti(p, sc.logBatches); err != nil {
		panic(err)
	}
}

// install writes the new version into the victim slot on every
// replica and releases the lock, all ordered within one round-trip:
// data, then the metadata word that makes it visible, then the version
// hint, then the unlock CAS.
func (c *Coordinator) install(p *sim.Proc, sc *execScratch, ws []*work, ts uint64) {
	db := c.cn.db
	sc.bat.Begin()
	for _, w := range ws {
		if !w.locked {
			continue
		}
		metaWord := sc.bytes(8)
		binary.LittleEndian.PutUint64(metaWord, layout.PackSlotMeta(true, ts))
		verWord := sc.bytes(8)
		binary.LittleEndian.PutUint64(verWord, ts)
		for _, n := range db.Pool.ReplicaNodes(w.table(), w.key) {
			bi := sc.bat.Batch(n.Region)
			sc.bat.Append(bi, rdma.Op{Kind: rdma.OpWrite, Off: w.off + uint64(w.lay.SlotDataOff(w.victim)), Data: w.data})
			sc.bat.Append(bi, rdma.Op{Kind: rdma.OpWrite, Off: w.off + uint64(w.lay.SlotMetaOff(w.victim)), Data: metaWord})
			sc.bat.Append(bi, rdma.Op{Kind: rdma.OpWrite, Off: w.off + layout.BOffVersion, Data: verWord})
			if n == w.primary {
				sc.bat.Append(bi, rdma.Op{
					Kind: rdma.OpCAS, Off: w.off + layout.BOffLock, Compare: c.gid, Swap: 0,
				})
			}
		}
	}
	batches := sc.bat.Batches()
	if len(batches) == 0 {
		return
	}
	if _, err := rdma.PostMulti(p, batches); err != nil {
		panic(err)
	}
	for _, w := range ws {
		if !w.locked {
			continue
		}
		db.Tracker.OnUnlock(w.table(), w.key, w.cells)
		db.Tracker.OnUpdate(w.table(), w.key, ts, layout.LockMask(w.op.WriteCells))
		db.Obs.CommitReleased(p, w.table(), w.key, ts, layout.LockMask(w.op.WriteCells), w.cells)
		w.locked = false
	}
}

// record feeds the committed transaction into the history checker.
func (c *Coordinator) record(t *engine.Txn, ws []*work, ts uint64, snapshot bool, snapshotTS uint64) {
	h := c.cn.db.History
	if h == nil || !h.On {
		return
	}
	ht := engine.HTxn{TS: ts, Snapshot: snapshot, SnapshotTS: snapshotTS, Label: t.Label}
	for _, w := range ws {
		for i, cell := range w.op.ReadCells {
			ht.Reads = append(ht.Reads, engine.HRead{
				Cell: engine.CellID{Table: w.table(), Key: w.key, Cell: cell},
				Hash: engine.HashValue(w.readVals[i]),
			})
		}
		for i, cell := range w.op.WriteCells {
			ht.Writes = append(ht.Writes, engine.HWrite{
				Cell: engine.CellID{Table: w.table(), Key: w.key, Cell: cell},
				Hash: engine.HashValue(w.writeVals[i]),
			})
		}
	}
	h.Commit(ht)
}
