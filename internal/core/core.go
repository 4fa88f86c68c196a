// Package core implements CREST, the paper's contribution: a
// disaggregated transaction system resolving contention with
// cell-level concurrency control (§4), localized execution (§5) and
// parallel commits (§6).
//
// The protocol per transaction (Table 2):
//
//	execution:  masked-CAS (cell locks) + READ per read-write record,
//	            READ per read-only record — but only when the record
//	            is not already in the compute node's record cache;
//	            local transactions share fetched records and operate
//	            on uncommitted local versions;
//	validation: one READ of the record header per read-only record
//	            (the EN array validates every read cell at once);
//	commit:     one redo-log WRITE, then — for the last writer only —
//	            WRITE (cells + epoch numbers) + masked-CAS (unlock)
//	            per record, ordered within one round-trip.
//
// The Options toggles reproduce the paper's factor analysis (Exp#5):
// Base (record-level, no localized execution), +Cell, and full CREST.
package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"crest/internal/engine"
	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/sim"
)

// Options selects protocol features, mirroring the paper's factor
// analysis (§8.4, Exp#5).
type Options struct {
	// CellLevel enables cell-granularity locking and validation; when
	// false, every access covers the whole record (the Base system).
	CellLevel bool
	// Localized enables the record cache, pipelined execution and
	// parallel commits; when false the coordinator runs a strict
	// fetch–validate–commit cycle directly against the memory pool.
	// Localized execution requires cell-level concurrency control.
	Localized bool
	// ENThreshold is the attempt-duration threshold beyond which
	// validation falls back from 2-byte epoch numbers to full-record
	// commit-timestamp comparison, guarding against EN rollover
	// (§4.2). The paper sets 65,536 µs.
	ENThreshold sim.Duration
	// RecordLevelTables opts individual tables out of cell-level
	// concurrency control (§4.4: cell-level metadata can be reserved
	// for the tables that need it). Accesses to these tables lock and
	// validate the whole record.
	RecordLevelTables []layout.TableID
}

// The liveness constants of the protocol (DESIGN.md §4b). No caller
// ever set them to anything else, so they are not Options; an ablation
// edits the constant.
const (
	// lockRetries bounds masked-CAS retries (and locked-read retries)
	// before an attempt aborts. No-wait on foreign locks: the attempt
	// aborts immediately and releases everything it held. Spinning
	// while holding other records' locks gridlocks compute nodes
	// against each other, and even one in-place retry measurably hurts
	// hot-key handoff.
	lockRetries = 1
	// lockBackoff is the wait between those retries.
	lockBackoff = 3 * sim.Microsecond
	// maxPiggyback bounds how many consecutive local write
	// transactions may reuse the compute node's held cell locks on one
	// record before a release window is forced. Without a bound, a
	// steady local write stream keeps `writers > 0` forever, the last-
	// writer release never fires, and other compute nodes starve on
	// that record. The paper does not discuss this liveness detail;
	// the bound is our addition (see DESIGN.md).
	maxPiggyback = 16
	// drainGrace holds local writers back for a short period after a
	// forced release so contending compute nodes can win the cells.
	drainGrace = 6 * sim.Microsecond
	// fetchTTL rate-limits cache invalidation: a validation failure
	// marks the record cache stale only if the base is older than
	// this. Without it, sustained cross-node churn on a hot record
	// turns every abort into a refetch and the shared object's
	// admission serializes the whole compute node.
	fetchTTL = 6 * sim.Microsecond
)

// lockPause is one lock retry's pause: lockBackoff plus up to as much
// again of jitter, drawn from p's random source.
func lockPause(p *sim.Proc) sim.Duration {
	return lockBackoff + sim.Duration(p.Rand().Int63n(int64(lockBackoff)))
}

// DefaultOptions returns the full CREST configuration.
func DefaultOptions() Options {
	return Options{CellLevel: true, Localized: true, ENThreshold: 65536 * sim.Microsecond}
}

// BaseOptions is the factor-analysis Base system: record-level
// concurrency control, strict execution.
func BaseOptions() Options {
	o := DefaultOptions()
	o.CellLevel = false
	o.Localized = false
	return o
}

// CellOptions is Base plus cell-level concurrency control.
func CellOptions() Options {
	o := DefaultOptions()
	o.Localized = false
	return o
}

// System is a CREST instance over a shared DB.
type System struct {
	db      *engine.DB
	opts    Options
	layouts map[layout.TableID]*layout.Record
	logs    []recoveryLog // every coordinator's log segment, for Recover
	cns     []*ComputeNode
}

// New creates a CREST system on db.
func New(db *engine.DB, opts Options) *System {
	if opts.Localized && !opts.CellLevel {
		panic("core: localized execution requires cell-level concurrency control")
	}
	return &System{db: db, opts: opts, layouts: map[layout.TableID]*layout.Record{}}
}

// Name labels the engine configuration.
func (s *System) Name() string {
	switch {
	case s.opts.Localized:
		return "CREST"
	case s.opts.CellLevel:
		return "CREST-cell"
	default:
		return "CREST-base"
	}
}

// CreateTable registers a table with the CREST record structure.
func (s *System) CreateTable(sc layout.Schema, capacity int) {
	s.db.CreateTableAs(format{s}, sc, capacity)
}

// Load writes a record's initial cell values host-side (pre-load).
func (s *System) Load(table layout.TableID, key layout.Key, cells [][]byte) {
	s.db.Load(format{s}, table, key, cells)
}

// FinishLoad publishes the hash indexes.
func (s *System) FinishLoad() error { return s.db.FinishLoad() }

// ComputeNode holds one compute node's shared state: the address
// cache, the record cache of local objects, and the TS_exec counter.
// Every coordinator of one compute node runs in the same simulation
// partition, so this state needs no locking even under parallel
// execution; db points at that partition's view of the database (the
// root DB on sequential runs).
type ComputeNode struct {
	sys   *System
	db    *engine.DB
	id    int
	cache *hashindex.AddrCache
	objs  map[engine.RecKey]*object
	// free holds, by table, the shells of objects that left the cache
	// and that nobody names any more; getOrCreate reuses them.
	free map[layout.TableID][]*object
	// blocks is where install cuts the base blocks of fetched records:
	// chunks that are never Reset, each alive while a base or a ReadVals
	// still points into it.
	blocks    engine.Arena
	tsExecCtr uint64
	// scanGen stamps objects during applyRelease's dedup scan,
	// replacing a per-attempt map.
	scanGen uint64
}

// NewComputeNode creates compute node state.
func (s *System) NewComputeNode(id int) *ComputeNode {
	cn := &ComputeNode{
		sys:   s,
		db:    s.db,
		id:    id,
		cache: hashindex.NewAddrCache(),
		objs:  map[engine.RecKey]*object{},
		free:  map[layout.TableID][]*object{},
	}
	s.cns = append(s.cns, cn)
	return cn
}

// NewPartitionComputeNode creates compute node state bound to a
// partition view of the database; its transaction ids come from the
// view (engine.DB.NextTxnID), like those of the partition's other
// compute nodes.
func (s *System) NewPartitionComputeNode(id int, db *engine.DB) *ComputeNode {
	cn := s.NewComputeNode(id)
	cn.db = db
	return cn
}

// WarmCache preloads the address cache with every record.
func (cn *ComputeNode) WarmCache() { cn.db.WarmCache(cn.cache) }

// CachedObjects reports the record cache's current size (diagnostics
// and cache-management tests).
func (cn *ComputeNode) CachedObjects() int { return len(cn.objs) }

// newObject returns the unadmitted object of record rk, in a recycled
// shell of its table when one is free. Shells are reused by table, not
// revived by key: the new object starts exactly as a fresh one does.
func (cn *ComputeNode) newObject(rk engine.RecKey, off uint64, lay *layout.Record, primary *memnode.Node) *object {
	free := cn.free[rk.Table]
	if len(free) == 0 {
		return newObject(rk.Table, rk.Key, off, lay, primary)
	}
	obj := free[len(free)-1]
	cn.free[rk.Table] = free[:len(free)-1]
	obj.init(rk.Table, rk.Key, off, lay, primary)
	return obj
}

// retire ends obj's stay in the record cache, by key and not by
// identity: the entry dropped is whatever object the cache holds for
// obj's record now, which may be none (obj was retired before) or
// another one, still referenced (obj was retired while a coordinator
// held it across a park, and the record got a second object since).
// DESIGN.md §4b has the interleaving; it is kept as it is because every
// pinned number depends on it.
func (cn *ComputeNode) retire(obj *object) {
	delete(cn.objs, obj.rkKey())
	obj.life = objRetired
	cn.recycle(obj)
}

// unpin drops a pin taken on obj across a park.
func (cn *ComputeNode) unpin(obj *object) {
	obj.pins--
	cn.recycle(obj)
}

// recycle frees obj's shell for reuse if it is retired and nobody can
// still name it: no reference, no pin. It is called wherever one of the
// three changes last; an object that goes unreferenced without being
// retired is left to the garbage collector.
func (cn *ComputeNode) recycle(obj *object) {
	if obj.life != objRetired || obj.pins > 0 || obj.refTotal() > 0 {
		return
	}
	obj.life = objRecycled
	clear(obj.base) // a shell on the free list pins no chunk
	// Nobody holds or waits on what nobody names: the resets panic
	// otherwise, and keep the queues' arrays for the shell's next record.
	obj.mu.Reset()
	obj.stateQ.Reset()
	cn.free[obj.table] = append(cn.free[obj.table], obj)
}

// nextTSExec draws the compute node's monotonically increasing
// execution timestamp (§5.2).
func (cn *ComputeNode) nextTSExec() uint64 {
	cn.tsExecCtr++
	return cn.tsExecCtr
}

// lockMaskFor returns the lock bits an op's writes require under the
// system's granularity.
func (s *System) lockMaskFor(lay *layout.Record, op *engine.Op) uint64 {
	if !op.IsWrite() {
		return 0
	}
	if s.opts.CellLevel && !s.recordLevel(lay.Schema.ID) {
		return layout.LockMask(op.WriteCells)
	}
	return layout.AllCellsMask(lay.NumCells())
}

// recordLevel reports whether a table opted out of cell-level CC.
func (s *System) recordLevel(table layout.TableID) bool {
	for _, t := range s.opts.RecordLevelTables {
		if t == table {
			return true
		}
	}
	return false
}

// snapshotConsistent applies the paper's §4.3 inter-cell check to a
// fetched record (data, with its header decoded into h): every read
// cell's epoch number in the header must match the epoch in the cell's
// own version word, and no read cell may be locked by another holder.
func snapshotConsistent(lay *layout.Record, h layout.Header, data []byte, readMask, ownLocks uint64) bool {
	otherLocks := h.Lock &^ ownLocks &^ layout.DeleteMask
	if readMask&otherLocks != 0 {
		return false
	}
	for m := readMask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if h.EN[c] != layout.GetCellVersion(data[lay.CellOff(c):]).EN {
			return false
		}
	}
	return true
}

// logRecord is one record's modifications inside a redo-log entry.
type logRecord struct {
	Table layout.TableID
	Key   layout.Key
	Mask  uint64 // written cells
	Vals  [][]byte
}

// logEncoder builds one dependency-tracking redo-log entry (§6) in a
// caller-owned buffer: transaction id, commit timestamp, dependent
// transaction ids, and the new cell values. The leading length word
// lets recovery walk the segment.
type logEncoder struct {
	buf          []byte
	start, count int // offsets of the length and record-count words
	recs         uint32
}

func beginLogEntry(buf []byte, txnID, ts uint64, deps []uint64) logEncoder {
	e := logEncoder{start: len(buf)}
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, txnID)
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deps)))
	for _, d := range deps {
		buf = binary.LittleEndian.AppendUint64(buf, d)
	}
	e.count = len(buf)
	e.buf = append(buf, 0, 0, 0, 0)
	return e
}

// record starts a record's modifications: mask names the written cells,
// whose values follow in ascending cell order.
func (e *logEncoder) record(k engine.RecKey, mask uint64) {
	e.recs++
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(k.Table))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(k.Key))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, mask)
}

func (e *logEncoder) value(v []byte) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// written logs what b's hook wrote.
func (e *logEncoder) written(b *engine.RecBase) {
	cells := b.Op.WriteCells
	mask := layout.LockMask(cells)
	e.record(b.RecKey, mask)
	for m := mask; m != 0; m &= m - 1 {
		e.value(b.WriteVals[slices.Index(cells, bits.TrailingZeros64(m))])
	}
}

// end seals the entry and returns the buffer.
func (e *logEncoder) end() []byte {
	binary.LittleEndian.PutUint32(e.buf[e.count:], e.recs)
	binary.LittleEndian.PutUint32(e.buf[e.start:], uint32(len(e.buf)-e.start))
	return e.buf
}

// encodeLogEntry builds a whole entry from decoded records.
func encodeLogEntry(txnID, ts uint64, deps []uint64, recs []logRecord) []byte {
	e := beginLogEntry(make([]byte, 0, 128), txnID, ts, deps)
	for _, r := range recs {
		e.record(engine.RecKey{Table: r.Table, Key: r.Key}, r.Mask)
		for _, v := range r.Vals {
			e.value(v)
		}
	}
	return e.end()
}

// decodeLogEntry parses one entry, returning its total length.
func decodeLogEntry(buf []byte) (txnID, ts uint64, deps []uint64, recs []logRecord, n int, err error) {
	if len(buf) < 4 {
		return 0, 0, nil, nil, 0, fmt.Errorf("core: truncated log entry")
	}
	total := int(binary.LittleEndian.Uint32(buf))
	if total < 28 || total > len(buf) {
		return 0, 0, nil, nil, 0, fmt.Errorf("core: bad log entry length %d", total)
	}
	b := buf[4:total]
	txnID = binary.LittleEndian.Uint64(b)
	ts = binary.LittleEndian.Uint64(b[8:])
	nd := binary.LittleEndian.Uint32(b[16:])
	b = b[20:]
	for i := uint32(0); i < nd; i++ {
		if len(b) < 8 {
			return 0, 0, nil, nil, 0, fmt.Errorf("core: truncated deps")
		}
		deps = append(deps, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) < 4 {
		return 0, 0, nil, nil, 0, fmt.Errorf("core: truncated record count")
	}
	nr := binary.LittleEndian.Uint32(b)
	b = b[4:]
	for i := uint32(0); i < nr; i++ {
		if len(b) < 20 {
			return 0, 0, nil, nil, 0, fmt.Errorf("core: truncated record")
		}
		r := logRecord{
			Table: layout.TableID(binary.LittleEndian.Uint32(b)),
			Key:   layout.Key(binary.LittleEndian.Uint64(b[4:])),
			Mask:  binary.LittleEndian.Uint64(b[12:]),
		}
		b = b[20:]
		for m := r.Mask; m != 0; m &= m - 1 {
			if len(b) < 4 {
				return 0, 0, nil, nil, 0, fmt.Errorf("core: truncated value")
			}
			vl := int(binary.LittleEndian.Uint32(b))
			if len(b) < 4+vl {
				return 0, 0, nil, nil, 0, fmt.Errorf("core: truncated value bytes")
			}
			r.Vals = append(r.Vals, append([]byte(nil), b[4:4+vl]...))
			b = b[4+vl:]
		}
		recs = append(recs, r)
	}
	return txnID, ts, deps, recs, total, nil
}
