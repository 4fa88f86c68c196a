// Package causality is the abort-forensics layer of the observability
// stack: a deterministic, nil-safe recorder of wait-for and conflict
// edges. Every time a coordinator blocks on, CAS-fails against, or
// validation-fails because of a cell, the engines record one Edge —
// (waiter txn, holder/updater txn, cell, edge kind, virtual wait
// duration) — through the shared engine.AttemptTimer seam.
//
// Recording is host-side only: it consumes no virtual time, no
// simulator events and no randomness, so a recording run is
// byte-identical to a plain run and same-seed runs produce byte-equal
// exports. Every method is nil-safe — a disabled recorder is a nil
// pointer and each emission point costs one pointer check — and
// recording an edge allocates nothing but, on the first edge (or the
// first after a snapshot), the ring's storage.
//
// On top of the edge stream sit two views (report.go): blame chains
// ("T412 aborted at validation on (table 3, key 17, cell 2), updated
// by T398, which waited 14µs on T371") and an aggregated contention
// dependency graph with hotspot ranking and wait-cycle detection,
// exported as Graphviz DOT and schema-versioned JSON (export.go).
package causality

import (
	"fmt"

	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Kind classifies one wait-for / conflict edge.
type Kind uint8

// The edge kinds the engines record.
const (
	// KindLockFail: a remote lock CAS lost to (or a locked read
	// retried against) the holder's cells.
	KindLockFail Kind = iota
	// KindValidation: a read version changed before commit; the holder
	// is the transaction that installed the newer version.
	KindValidation
	// KindDependency: a CREST local transaction waited for a
	// depended-on local transaction to resolve (§5.2).
	KindDependency
	// KindLocalWait: a coordinator blocked on a compute-node-local
	// object (cache-line mutex or admission queue).
	KindLocalWait
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLockFail:
		return "lock-fail"
	case KindValidation:
		return "validation"
	case KindDependency:
		return "dependency"
	case KindLocalWait:
		return "local-wait"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// State is a transaction's final disposition.
type State uint8

// Transaction states. A harness that retries until commit leaves most
// nodes Committed with Aborts > 0; the abort history stays attached.
const (
	StatePending State = iota
	StateCommitted
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Edge is one recorded wait-for / conflict observation. Waiter is
// always known; Holder is 0 when the blocking transaction could not be
// attributed (e.g. the updater aged out of the per-record ring, which
// conservatively counts as a true conflict — see engine.ConflictTracker).
type Edge struct {
	Seq    uint64   `json:"seq"` // global emission order (survives ring eviction)
	At     sim.Time `json:"at"`  // virtual time the edge was observed
	Kind   Kind     `json:"kind"`
	Waiter uint64   `json:"waiter"` // txn id
	Holder uint64   `json:"holder"` // txn id, 0 = unattributed

	// The contended record. Mask holds the cell bits involved; 0 means
	// the whole record (record-level lock word or unknown cells).
	Table layout.TableID `json:"table"`
	Key   layout.Key     `json:"key"`
	Mask  uint64         `json:"mask"`

	// Wait is the virtual time the waiter spent blocked (dependency
	// and local waits); conflict discoveries (lock CAS lost,
	// validation failure) are instantaneous and record 0.
	Wait sim.Duration `json:"wait"`
}

// Txn is the live per-transaction node, the handle the engine keeps in
// the observer context of the process running the transaction. One node
// covers all attempts of a logical transaction; Aborts counts failed
// attempts and the cause fields freeze the conflict site of the last
// aborted attempt.
type Txn struct {
	ID      uint64
	Label   string
	Coord   uint64
	Attempt int
	Start   sim.Time
	End     sim.Time
	State   State
	Reason  string // last abort classification, "" if never aborted
	Aborts  int

	// Cause of the last abort: the conflict edge that attempt recorded
	// last, frozen by Abort. CauseSeq is 0 when the aborting attempt
	// recorded no edge (e.g. reverse-order aborts).
	CauseSeq   uint64
	CauseKind  Kind
	CauseTable layout.TableID
	CauseKey   layout.Key
	CauseMask  uint64
	Holder     uint64 // holder of the causing edge, 0 = unattributed

	// Conflict site of the current attempt (promoted to Cause* on
	// abort when it belongs to the aborting attempt).
	cSeq     uint64
	cKind    Kind
	cTable   layout.TableID
	cKey     layout.Key
	cMask    uint64
	cHolder  uint64
	cAttempt int
}

// WhyID returns the node's id (0 for nil: the id of an
// unattributed holder).
func (t *Txn) WhyID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// recKey identifies one record in the holder/updater tables.
type recKey struct {
	table layout.TableID
	key   layout.Key
}

// holderEntry is one live lock holding: the acquiring transaction and
// the cell bits it holds (0 = record-level lock word).
type holderEntry struct {
	id   uint64
	mask uint64
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

// recState is the per-record attribution state.
type recState struct {
	holders []holderEntry
	ring    [updaterHistoryLen]updEntry
	ringLen int
	ringPos int // next slot to overwrite once the ring is full
}

// Recorder collects edges and transaction nodes into bounded rings.
// It is owned by one simulation environment; the cooperative scheduler
// serializes all emissions, so no locking is needed. The zero Recorder
// is unusable; a nil *Recorder is the disabled state and every method
// tolerates it.
type Recorder struct {
	edges trace.Ring[Edge]
	seq   uint64

	txns trace.Ring[*Txn]

	recs map[recKey]*recState

	// Partitioned mode (Shard, see trace.Family). Children are each
	// written by exactly one partition; edge seqs stride by the
	// partition count, as the engine's transaction ids do, so the merged
	// Snapshot stays collision-free without remapping Cause references.
	fam trace.Family[Recorder]
}

// Default ring capacities when the caller passes none.
const (
	DefaultCapacity    = 1 << 18
	DefaultTxnCapacity = 1 << 16
)

// Options size a recorder's rings.
type Options struct {
	// Capacity bounds the edge ring (DefaultCapacity when <= 0).
	Capacity int
	// TxnCapacity bounds the transaction-node ring (DefaultTxnCapacity
	// when <= 0).
	TxnCapacity int
}

// NewRecorder returns an enabled recorder.
func NewRecorder(opt Options) *Recorder {
	if opt.Capacity <= 0 {
		opt.Capacity = DefaultCapacity
	}
	if opt.TxnCapacity <= 0 {
		opt.TxnCapacity = DefaultTxnCapacity
	}
	return newRecorder(opt.Capacity, opt.TxnCapacity, trace.Family[Recorder]{})
}

// Enabled reports whether the recorder collects edges.
func (r *Recorder) Enabled() bool { return r != nil }

func newRecorder(edgeCap, txnCap int, fam trace.Family[Recorder]) *Recorder {
	return &Recorder{edges: trace.NewRing[Edge](edgeCap), txns: trace.NewRing[*Txn](txnCap),
		recs: map[recKey]*recState{}, fam: fam}
}

// Shard returns the per-partition child recorder for part out of parts
// (see trace.Family.Shard). Each child must be written by exactly one
// partition (one sim.Env); Snapshot on the root merges all children
// deterministically. With parts <= 1 (or a nil recorder) Shard returns
// the receiver. Children stride their edge seqs by the partition count,
// so CauseSeq references survive the merge without remapping.
func (r *Recorder) Shard(part, parts int) *Recorder {
	if r == nil {
		return nil
	}
	return r.fam.Shard("causality", r, part, parts, func(f trace.Family[Recorder]) *Recorder {
		return newRecorder(r.edges.Cap(), r.txns.Cap(), f)
	})
}

// Dropped reports how many edges were evicted from the edge ring,
// summed across partition children.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.fam.Sum(r, func(m *Recorder) uint64 { return m.edges.Dropped() })
}

// Len reports the number of buffered edges, summed across partition
// children.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(r.fam.Sum(r, func(m *Recorder) uint64 { return uint64(m.edges.Len()) }))
}

// Begin opens the node of the transaction s identifies, at its first
// attempt, and returns it (nil from a nil recorder). It allocates the
// node, which the ring keeps after the transaction ends; the per-edge
// hot path stays allocation-free.
func (r *Recorder) Begin(at sim.Time, s *trace.Span) *Txn {
	if r == nil {
		return nil
	}
	t := &Txn{ID: s.ID, Label: s.Label, Coord: s.Coord, Attempt: 1, Start: at}
	*r.txns.Next() = t
	return t
}

// Retry moves t on to its next attempt.
func (r *Recorder) Retry(t *Txn) {
	if t != nil {
		t.Attempt++
	}
}

// Commit ends t as committed.
func (r *Recorder) Commit(at sim.Time, t *Txn) {
	if r == nil || t == nil {
		return
	}
	t.State = StateCommitted
	t.End = at
}

// Abort records a failed attempt of t with its classification. The
// node stays open for the retry. When the attempt recorded a conflict
// edge, the abort cause freezes to that edge.
func (r *Recorder) Abort(at sim.Time, t *Txn, reason string) {
	if r == nil || t == nil {
		return
	}
	t.State = StateAborted
	t.End = at
	t.Reason = reason
	t.Aborts++
	if t.cAttempt == t.Attempt && t.cSeq != 0 {
		t.CauseSeq = t.cSeq
		t.CauseKind = t.cKind
		t.CauseTable, t.CauseKey, t.CauseMask = t.cTable, t.cKey, t.cMask
		t.Holder = t.cHolder
	} else {
		t.CauseSeq, t.CauseMask, t.Holder = 0, 0, 0
	}
}

// edge records one observation at time at for transaction t (none when
// t is nil) — into the ring's next slot, evicting the oldest edge on
// overflow, under the next sequence number (strided on partition
// children) — and remembers it as the current attempt's conflict site.
func (r *Recorder) edge(at sim.Time, t *Txn, kind Kind, holder uint64, table layout.TableID, key layout.Key, mask uint64, wait sim.Duration) {
	if t == nil {
		return
	}
	r.seq++
	seq := r.fam.StrideID(r.seq)
	*r.edges.Next() = Edge{Seq: seq, At: at, Kind: kind, Waiter: t.ID, Holder: holder,
		Table: table, Key: key, Mask: mask, Wait: wait}
	t.cSeq, t.cKind, t.cHolder = seq, kind, holder
	t.cTable, t.cKey, t.cMask = table, key, mask
	t.cAttempt = t.Attempt
}

// LockFail records t losing a lock CAS (or reading a locked record) on
// the given cells. The holder is resolved from the live lock table.
func (r *Recorder) LockFail(at sim.Time, t *Txn, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	r.edge(at, t, KindLockFail, r.holderOf(table, key, mask), table, key, mask, 0)
}

// ValidationFail records a validation failure: a cell t read at
// version since changed (or is locked) at commit time. The
// holder is the newest updater past since from the per-record ring,
// falling back to the live lock holder; versions older than the
// 16-entry window lose attribution (Holder 0), mirroring
// engine.ConflictTracker's conservative true-conflict answer.
func (r *Recorder) ValidationFail(at sim.Time, t *Txn, table layout.TableID, key layout.Key, mask uint64, since uint64) {
	if r == nil {
		return
	}
	holder := r.updaterSince(table, key, since)
	if holder == 0 {
		holder = r.holderOf(table, key, mask)
	}
	r.edge(at, t, KindValidation, holder, table, key, mask, 0)
}

// DependencyWait records a CREST local dependency wait: t blocked for
// wait on the transaction with why id holder.
func (r *Recorder) DependencyWait(at sim.Time, t *Txn, holder uint64, wait sim.Duration) {
	if r == nil {
		return
	}
	r.edge(at, t, KindDependency, holder, 0, 0, 0, wait)
}

// LocalWait records t blocked for wait on a compute-node-local object
// (cache-line mutex or admission queue). holder is the why id of the transaction
// that held the object when the waiter parked (0 when unknown).
func (r *Recorder) LocalWait(at sim.Time, t *Txn, table layout.TableID, key layout.Key, holder uint64, wait sim.Duration) {
	if r == nil {
		return
	}
	r.edge(at, t, KindLocalWait, holder, table, key, 0, wait)
}

// rec returns the attribution state for a record, creating it on first
// touch (warm-up; steady state only looks up).
func (r *Recorder) rec(table layout.TableID, key layout.Key) *recState {
	k := recKey{table, key}
	rs := r.recs[k]
	if rs == nil {
		rs = &recState{}
		r.recs[k] = rs
	}
	return rs
}

// OnLock registers t as a live holder of the given cell bits (0 = the
// record-level lock word).
func (r *Recorder) OnLock(t *Txn, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil || t == nil {
		return
	}
	rs := r.rec(table, key)
	for i := range rs.holders {
		if rs.holders[i].id == t.ID {
			rs.holders[i].mask |= mask
			return
		}
	}
	rs.holders = append(rs.holders, holderEntry{id: t.ID, mask: mask})
}

// OnUnlock drops the given cell bits from the record's live holders.
// mask 0 (a record-level lock word) clears every holder.
func (r *Recorder) OnUnlock(table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	rs := r.recs[recKey{table, key}]
	if rs == nil {
		return
	}
	if mask == 0 {
		rs.holders = rs.holders[:0]
		return
	}
	kept := rs.holders[:0]
	for _, h := range rs.holders {
		if h.mask &= ^mask; h.mask != 0 {
			kept = append(kept, h)
		}
	}
	rs.holders = kept
}

// holderOf resolves the oldest live holder overlapping mask (any
// holder when mask is 0); 0 when none is known.
func (r *Recorder) holderOf(table layout.TableID, key layout.Key, mask uint64) uint64 {
	rs := r.recs[recKey{table, key}]
	if rs == nil {
		return 0
	}
	for _, h := range rs.holders {
		if mask == 0 || h.mask == 0 || h.mask&mask != 0 {
			return h.id
		}
	}
	return 0
}

// OnUpdate records that transaction id installed version over the
// given cells, feeding updater attribution for validation failures.
// id 0 (recording off at the writer) still advances the ring so stale
// versions age out.
func (r *Recorder) OnUpdate(id uint64, table layout.TableID, key layout.Key, version, cells uint64) {
	if r == nil {
		return
	}
	rs := r.rec(table, key)
	e := updEntry{version: version, id: id, cells: cells}
	if rs.ringLen < updaterHistoryLen {
		rs.ring[rs.ringLen] = e
		rs.ringLen++
		return
	}
	rs.ring[rs.ringPos] = e
	rs.ringPos = (rs.ringPos + 1) % updaterHistoryLen
}

// updaterSince resolves the newest recorded updater whose version is
// past since; 0 when the window no longer covers it.
func (r *Recorder) updaterSince(table layout.TableID, key layout.Key, since uint64) uint64 {
	rs := r.recs[recKey{table, key}]
	if rs == nil {
		return 0
	}
	var best uint64
	var bestVer uint64
	for i := 0; i < rs.ringLen; i++ {
		e := &rs.ring[i]
		if e.version > since && e.version >= bestVer && e.id != 0 {
			best, bestVer = e.id, e.version
		}
	}
	return best
}

// TxnInfo is one transaction node in a snapshot.
type TxnInfo struct {
	ID      uint64     `json:"id"`
	Label   string     `json:"label"`
	Coord   uint64     `json:"coord"`
	Attempt int        `json:"attempts"`
	Start   sim.Time   `json:"start"`
	End     sim.Time   `json:"end"`
	State   State      `json:"state"`
	Reason  string     `json:"reason,omitempty"`
	Aborts  int        `json:"aborts,omitempty"`
	Cause   *CauseInfo `json:"cause,omitempty"`
}

// CauseInfo is the frozen conflict site of a transaction's last abort.
type CauseInfo struct {
	Seq    uint64         `json:"seq"`
	Kind   Kind           `json:"kind"`
	Table  layout.TableID `json:"table"`
	Key    layout.Key     `json:"key"`
	Mask   uint64         `json:"mask"`
	Holder uint64         `json:"holder"`
}

// Snapshot is the recorder's state at one instant, the input to every
// view and exporter. Edges may alias the recorder's edge ring
// (trace.Ring.View), which never writes into it again: a snapshot stays
// as it was taken while the run goes on, and must not be written to.
type Snapshot struct {
	Edges       []Edge    // emission order; merged: (at, partition, seq)
	Txns        []TxnInfo // begin order; merged: (start, partition, id)
	Dropped     uint64    // edges evicted from the ring
	TxnsDropped uint64    // transaction nodes evicted
}

// Snapshot views the edge ring (oldest to newest) and renders the
// transaction nodes. A nil recorder yields an empty snapshot. A
// partitioned recorder (see Shard) merges every child deterministically
// (trace.MergeByTime): edges order by (virtual time, partition, seq) and
// transaction nodes by (start time, partition, id). Strided seqs and ids
// are kept as emitted so Cause references remain valid.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	if !r.fam.Sharded() {
		return &Snapshot{Edges: r.edges.View(), Txns: txnInfos(r.txns.View()),
			Dropped: r.edges.Dropped(), TxnsDropped: r.txns.Dropped()}
	}
	members := r.fam.Members(r)
	edges := make([][]Edge, len(members))
	txns := make([][]*Txn, len(members))
	out := &Snapshot{}
	for i, m := range members {
		edges[i] = m.edges.View()
		txns[i] = m.txns.View()
		out.Dropped += m.edges.Dropped()
		out.TxnsDropped += m.txns.Dropped()
	}
	out.Edges = trace.MergeByTime(edges, func(e *Edge) (sim.Time, uint64) { return e.At, e.Seq }, nil)
	out.Txns = txnInfos(trace.MergeByTime(txns, func(t **Txn) (sim.Time, uint64) { return (*t).Start, (*t).ID }, nil))
	return out
}

// txnInfos renders transaction nodes, in the order given.
func txnInfos(txns []*Txn) []TxnInfo {
	out := make([]TxnInfo, len(txns))
	for i, t := range txns {
		out[i] = TxnInfo{ID: t.ID, Label: t.Label, Coord: t.Coord, Attempt: t.Attempt,
			Start: t.Start, End: t.End, State: t.State, Reason: t.Reason, Aborts: t.Aborts}
		if t.CauseSeq != 0 {
			out[i].Cause = &CauseInfo{Seq: t.CauseSeq, Kind: t.CauseKind,
				Table: t.CauseTable, Key: t.CauseKey, Mask: t.CauseMask, Holder: t.Holder}
		}
	}
	return out
}

// Txn looks up a node by id (nil when unknown or evicted).
func (s *Snapshot) Txn(id uint64) *TxnInfo {
	for i := range s.Txns {
		if s.Txns[i].ID == id {
			return &s.Txns[i]
		}
	}
	return nil
}
