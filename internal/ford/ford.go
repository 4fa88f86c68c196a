// Package ford implements the FORD baseline (Zhang et al., "Localized
// Validation Accelerates Distributed Transactions on Disaggregated
// Persistent Memory", ACM TOS 2023) as the paper evaluates it:
// record-level optimistic concurrency control over one-sided RDMA.
//
// Per transaction (Table 2 of the CREST paper):
//
//	execution:  READ for read-only records; CAS(lock)+READ, batched in
//	            one round-trip, for read-write records (no-wait: a
//	            failed CAS aborts the attempt);
//	validation: one READ of lock+version for each read-only record,
//	            batched per memory node;
//	commit:     one log WRITE, then WRITE(version+data)+CAS(unlock)
//	            batched per replica — strict locking holds every lock
//	            until here.
//
// That shape is the strict attempt driver's (internal/engine/strict.go);
// this package is FORD's record format under it.
package ford

import (
	"encoding/binary"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// New creates a FORD system on db.
func New(db *engine.DB) *engine.StrictSystem[rec] {
	return engine.NewStrictSystem[rec](db, format{})
}

// rec is FORD's per-record attempt state; the working copy
// (Work.Data) is the whole record.
type rec struct {
	lay *layout.FORDRecord
	ver uint64 // version word observed at fetch
}

type work = engine.Work[rec]

// format is FORD's record format: a header with one 8-byte lock word
// (0 = free, else the owner's id) and one version word, then the raw
// cell values.
type format map[layout.TableID]*layout.FORDRecord

func (format) Name() string { return "FORD" }

func (f format) AddTable(sc layout.Schema) int {
	f[sc.ID] = layout.NewFORDRecord(sc)
	return f[sc.ID].PaddedSize()
}

func (f format) Encode(buf []byte, table layout.TableID, key layout.Key, cells [][]byte) {
	binary.LittleEndian.PutUint64(buf[layout.BOffKey:], uint64(key))
	binary.LittleEndian.PutUint32(buf[layout.BOffTableID:], uint32(table))
	for i, v := range cells {
		copy(buf[f[table].CellValueOff(i):], v)
	}
}

func (format) SnapshotRead(*engine.Txn) bool { return false }

// Bind sets the lock mask to every cell: the lock is the record's one
// lock word, so a holder of any cell blocks every other.
func (f format) Bind(w *work) {
	w.X.lay = f[w.Table]
	w.Lock = layout.AllCellsMask(len(w.X.lay.Schema.CellSizes))
}

func (format) LockOp(c *engine.Coord, w *work) (rdma.Op, bool) {
	return rdma.Op{Kind: rdma.OpCAS, Off: w.Off + layout.BOffLock, Compare: 0, Swap: c.GID}, w.Op.IsWrite()
}

func (format) UnlockOp(c *engine.Coord, w *work) rdma.Op {
	return rdma.Op{Kind: rdma.OpCAS, Off: w.Off + layout.BOffLock, Compare: c.GID, Swap: 0}
}

func (format) FetchLen(w *work) int { return w.X.lay.Size() }

// Parse keeps the fetched record: it is retained (and mutated by op
// hooks) across later round-trips. Reads never wait on a lock; a
// concurrent writer is caught at validation.
func (format) Parse(w *work, data []byte, _ engine.Snapshot) (engine.FetchStatus, uint64) {
	w.Data = append(w.Data[:0], data...)
	w.X.ver = layout.ReadWord(w.Data, layout.BOffVersion) & layout.MaxTS48
	return engine.FetchOK, 0
}

func (format) Refetch(*sim.Proc, int) (sim.Duration, bool) { return 0, false }

func (format) NodeMajor() bool { return true }

func (format) Cell(w *work, cell int) []byte {
	return w.Data[w.X.lay.CellValueOff(cell):][:w.X.lay.Schema.CellSizes[cell]]
}

// ValidateOp re-reads the lock and version words of a read-only record;
// read-write records are protected by their lock.
func (format) ValidateOp(w *work, _ sim.Duration) (rdma.Op, bool) {
	return rdma.Op{Kind: rdma.OpRead, Off: w.Off + layout.BOffLock, Len: 16}, !w.Locked
}

func (format) Check(w *work, data []byte, _ sim.Duration) (cells, since uint64, locked, ok bool) {
	lock := binary.LittleEndian.Uint64(data)
	ver := binary.LittleEndian.Uint64(data[8:]) & layout.MaxTS48
	return w.Cells, w.X.ver, lock != 0, lock == 0 && ver == w.X.ver
}

// AppendLog builds the undo-log entry: ts, then per written record its
// table, key, prior version and image.
func (format) AppendLog(buf []byte, _ *engine.Coord, ws []*work, ts uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	count := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	n := uint32(0)
	for _, w := range ws {
		if !w.Locked {
			continue
		}
		n++
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Table))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.Key))
		buf = binary.LittleEndian.AppendUint64(buf, w.X.ver)
		buf = append(buf, w.Data[w.X.lay.DataOff():w.X.lay.Size()]...)
	}
	binary.LittleEndian.PutUint32(buf[count:], n)
	return buf
}

// Install writes version+data with one WRITE per record.
func (format) Install(_ *sim.Proc, _ *engine.Coord, w *work, ts uint64, _ *engine.Arena, ops []rdma.Op) []rdma.Op {
	layout.PutWord(w.Data, layout.BOffVersion, ts)
	return append(ops, rdma.Op{Kind: rdma.OpWrite, Off: w.Off + layout.BOffVersion, Data: w.Data[layout.BOffVersion:w.X.lay.Size()]})
}
