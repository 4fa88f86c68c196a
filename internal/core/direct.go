package core

import (
	"encoding/binary"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// format is the CREST record structure (Fig 6) as a record format of
// the strict attempt driver (internal/engine/strict.go). The driver is
// the execution path of the factor-analysis Base and +Cell
// configurations (§8.4, Exp#5): no record cache, locks held from fetch
// to commit, every read validated remotely. With CellLevel on it still
// locks and validates at cell granularity.
type format struct{ sys *System }

// drec is the format's per-record attempt state; the working copy
// (Work.Data) is the whole record as fetched, hooks' writes applied.
type drec struct{ lay *layout.Record }

type dwork = engine.Work[drec]

func (f format) Name() string { return f.sys.Name() }

func (f format) AddTable(sc layout.Schema) int {
	f.sys.layouts[sc.ID] = layout.NewRecord(sc)
	return f.sys.layouts[sc.ID].Size()
}

func (f format) Encode(buf []byte, table layout.TableID, key layout.Key, cells [][]byte) {
	lay := f.sys.layouts[table]
	layout.EncodeHeader(buf, layout.Header{Key: key, TableID: table})
	for i, v := range cells {
		layout.PutCellVersion(buf[lay.CellOff(i):], layout.CellVersion{})
		copy(buf[lay.CellValueOff(i):], v)
	}
}

func (format) SnapshotRead(*engine.Txn) bool { return false }

func (f format) Bind(w *dwork) {
	w.X.lay = f.sys.layouts[w.Table]
	w.Lock = f.sys.lockMaskFor(w.X.lay, w.Op)
}

// held returns the lock bits this attempt holds on w.
func held(w *dwork) uint64 {
	if w.Locked {
		return w.Lock
	}
	return 0
}

func (format) LockOp(_ *engine.Coord, w *dwork) (rdma.Op, bool) {
	return rdma.Op{Kind: rdma.OpMaskedCAS, Off: w.Off + layout.OffLock, Swap: w.Lock, Mask: w.Lock}, w.Lock != 0
}

func (format) UnlockOp(_ *engine.Coord, w *dwork) rdma.Op {
	return rdma.Op{Kind: rdma.OpMaskedCAS, Off: w.Off + layout.OffLock, Compare: w.Lock, Swap: 0, Mask: w.Lock}
}

func (format) FetchLen(w *dwork) int { return w.X.lay.Size() }

// unlockedReads returns the cells w reads without holding their lock.
func unlockedReads(w *dwork) uint64 { return layout.LockMask(w.Op.ReadCells) &^ held(w) }

// Parse keeps the record if its read cells form a consistent snapshot;
// inconsistent snapshots and foreign locks on read cells are fetched
// again (§4.3).
func (format) Parse(w *dwork, data []byte, _ engine.Snapshot) (engine.FetchStatus, uint64) {
	readMask := unlockedReads(w)
	if !snapshotConsistent(w.X.lay, layout.DecodeHeader(data), data, readMask, held(w)) {
		return engine.FetchRetry, readMask
	}
	w.Data = append(w.Data[:0], data...)
	return engine.FetchOK, 0
}

// Refetch retries lockRetries times, lockBackoff plus jitter apart.
func (format) Refetch(p *sim.Proc, round int) (sim.Duration, bool) {
	if round >= lockRetries {
		return 0, false
	}
	return lockPause(p), true
}

func (format) NodeMajor() bool { return false }

func (format) Cell(w *dwork, cell int) []byte {
	return w.Data[w.X.lay.CellValueOff(cell):][:w.X.lay.CellSize(cell)]
}

// ValidateOp re-reads the record header, whose EN array validates every
// read cell at once — or, past the EN threshold, the whole record, to
// compare commit timestamps instead (§4.2).
func (f format) ValidateOp(w *dwork, elapsed sim.Duration) (rdma.Op, bool) {
	n := layout.HeaderSize
	if elapsed > f.sys.opts.ENThreshold {
		n = w.X.lay.Size()
	}
	return rdma.Op{Kind: rdma.OpRead, Off: w.Off, Len: n}, unlockedReads(w) != 0
}

func (f format) Check(w *dwork, data []byte, elapsed sim.Duration) (cells, since uint64, locked, ok bool) {
	lay := w.X.lay
	h := layout.DecodeHeader(data)
	otherLocks := h.Lock &^ held(w) &^ layout.DeleteMask
	reads := unlockedReads(w)
	for _, cell := range w.Op.ReadCells {
		bit := uint64(1) << uint(cell)
		if reads&bit == 0 {
			continue
		}
		// The fetch was snapshot-consistent, so the cell's own version
		// word holds the epoch its header entry had then.
		read := layout.GetCellVersion(w.Data[lay.CellOff(cell):])
		locked := otherLocks&bit != 0
		switch {
		case locked:
		case elapsed > f.sys.opts.ENThreshold:
			if layout.GetCellVersion(data[lay.CellOff(cell):]).TS == read.TS {
				continue
			}
		case h.EN[cell] == read.EN:
			continue
		}
		return bit, read.TS, locked, false
	}
	return 0, 0, false, true
}

// AppendLog builds the redo-log entry; the strict path has no local
// dependencies.
func (format) AppendLog(buf []byte, c *engine.Coord, ws []*dwork, ts uint64) []byte {
	e := beginLogEntry(buf, c.GID<<32, ts, nil)
	for _, w := range ws {
		if w.Locked {
			e.written(&w.RecBase)
		}
	}
	return e.end()
}

// Install writes each updated cell's version word + value and bumps its
// epoch number in the header.
func (f format) Install(p *sim.Proc, c *engine.Coord, w *dwork, ts uint64, arena *engine.Arena, ops []rdma.Op) []rdma.Op {
	lay := w.X.lay
	for _, cell := range w.Op.WriteCells {
		en := binary.LittleEndian.Uint16(w.Data[lay.ENOff(cell):]) + 1
		if en == 0 { // 16-bit epoch wrapped
			c.DB.Obs.ENOverflow(p, w.Table, w.Key, cell)
		}
		ops = appendCellWrite(ops, arena, lay, w.Off, cell, layout.CellVersion{EN: en, TS: ts}, f.Cell(w, cell))
	}
	return ops
}

// appendCellWrite appends the two WRITEs that publish one cell of the
// record at off: its version word + value, then its epoch number in
// the header.
func appendCellWrite(ops []rdma.Op, arena *engine.Arena, lay *layout.Record, off uint64, cell int, ver layout.CellVersion, value []byte) []rdma.Op {
	slot := arena.Bytes(layout.CellVersionSize + len(value))
	layout.PutCellVersion(slot, ver)
	copy(slot[layout.CellVersionSize:], value)
	enb := arena.Bytes(2)
	binary.LittleEndian.PutUint16(enb, ver.EN)
	return append(ops,
		rdma.Op{Kind: rdma.OpWrite, Off: off + uint64(lay.CellOff(cell)), Data: slot},
		rdma.Op{Kind: rdma.OpWrite, Off: off + uint64(lay.ENOff(cell)), Data: enb})
}
