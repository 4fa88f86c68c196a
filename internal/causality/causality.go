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
// first after a snapshot), the ring's storage, and the counters of a
// cell it ranks for the first time.
//
// Besides the bounded rings, the recorder counts the contention graph
// as it records, over the whole run, so it loses nothing when the
// rings evict: per workload label, its transactions, commits and
// aborted attempts; per (waiter label, holder label, kind), its edges
// and their wait; and per cell, the edges that name it and the
// transactions whose last abort cause it is. On top sit two views
// (report.go): blame chains, read from the rings ("T412 aborted at
// validation on (table 3, key 17, cell 2), updated by T398, which
// waited 14µs on T371"), and that counted graph with wait-cycle
// detection, exported as Graphviz DOT and schema-versioned JSON
// (export.go).
package causality

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

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
	label   int32  // Label's node in the member's label graph
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

// txnSlabLen is how many transaction nodes Begin cuts from one slab. A
// slab lives while the ring or an engine still holds one of its nodes.
const txnSlabLen = 256

// Recorder collects edges and transaction nodes into bounded rings.
// It is owned by one simulation environment; the cooperative scheduler
// serializes all emissions, so no locking is needed. The zero Recorder
// is unusable; a nil *Recorder is the disabled state and every method
// tolerates it.
type Recorder struct {
	edges trace.Ring[Edge]
	seq   uint64

	txns    trace.Ring[*Txn]
	txnSlab []Txn // the nodes Begin has yet to hand out

	hot   hotspots   // this member's per-cell contention, counted as recorded
	graph labelGraph // this member's label graph, counted as recorded

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

func newRecorder(edgeCap, txnCap int, fam trace.Family[Recorder]) *Recorder {
	return &Recorder{edges: trace.NewRing[Edge](edgeCap), txns: trace.NewRing[*Txn](txnCap),
		fam: fam}
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

// Begin opens the node of the transaction s identifies, at its first
// attempt, counts it against its label, and returns it (nil from a nil
// recorder). The node is cut from the recorder's slab, one allocation
// every txnSlabLen nodes, and the ring keeps it after the transaction
// ends; a label's first transaction grows the label graph. The
// per-edge hot path stays allocation-free.
func (r *Recorder) Begin(at sim.Time, s *trace.Span) *Txn {
	if r == nil {
		return nil
	}
	if len(r.txnSlab) == 0 {
		r.txnSlab = make([]Txn, txnSlabLen)
	}
	t := &r.txnSlab[0]
	r.txnSlab = r.txnSlab[1:]
	*t = Txn{ID: s.ID, Label: s.Label, Coord: s.Coord, Attempt: 1, Start: at,
		label: r.graph.intern(s.Label)}
	r.graph.nodes[t.label].Txns++
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
	if t.State != StateCommitted {
		r.graph.nodes[t.label].Commits++
	}
	t.State = StateCommitted
	t.End = at
}

// Abort records a failed attempt of t with its classification. The
// node stays open for the retry. When the attempt recorded a conflict
// edge, the abort cause freezes to that edge. The hotspot ranking
// counts each transaction's last cause once: the abort moves from the
// previous cause's cells to the new one's.
func (r *Recorder) Abort(at sim.Time, t *Txn, reason string) {
	if r == nil || t == nil {
		return
	}
	n := &r.graph.nodes[t.label]
	if t.State == StateCommitted {
		n.Commits--
	}
	n.Aborts++
	t.State = StateAborted
	t.End = at
	t.Reason = reason
	t.Aborts++
	r.countCause(t, ^uint64(0)) // minus one, by wrap-around
	if t.cAttempt == t.Attempt && t.cSeq != 0 {
		t.CauseSeq = t.cSeq
		t.CauseKind = t.cKind
		t.CauseTable, t.CauseKey, t.CauseMask = t.cTable, t.cKey, t.cMask
		t.Holder = t.cHolder
		r.countCause(t, 1)
	} else {
		t.CauseSeq, t.CauseMask, t.Holder = 0, 0, 0
	}
}

// countCause adds delta to the aborts of the cells of t's cause, if it
// has one that names a record (a dependency wait names none).
func (r *Recorder) countCause(t *Txn, delta uint64) {
	if t.CauseSeq != 0 && t.CauseKind != KindDependency {
		r.hot.add(t.CauseTable, t.CauseKey, t.CauseMask, 0, delta, 0)
	}
}

// edge records one observation at time at for transaction t (none when
// t or the recorder is nil) — into the ring's next slot, evicting the
// oldest edge on overflow, under the next sequence number (strided on
// partition children) — counts it against the cells it names and the
// label pair it joins, and remembers it as the current attempt's
// conflict site.
func (r *Recorder) edge(at sim.Time, t *Txn, kind Kind, holder uint64, table layout.TableID, key layout.Key, mask uint64, wait sim.Duration) {
	if r == nil || t == nil {
		return
	}
	r.seq++
	seq := r.fam.StrideID(r.seq)
	*r.edges.Next() = Edge{Seq: seq, At: at, Kind: kind, Waiter: t.ID, Holder: holder,
		Table: table, Key: key, Mask: mask, Wait: wait}
	if kind != KindDependency { // no record identity on dependency edges
		r.hot.add(table, key, mask, 1, 0, wait)
	}
	w := r.graph.waits(t.label, r.labelOf(holder), kind)
	w.count++
	w.wait += wait
	t.cSeq, t.cKind, t.cHolder = seq, kind, holder
	t.cTable, t.cKey, t.cMask = table, key, mask
	t.cAttempt = t.Attempt
}

// labelOf returns the label graph node of the transaction with why id
// id: the unattributed node when id is 0 or the transaction ring no
// longer holds it. A holder is in its waiter's member: each partition
// has its own contention table. Ids rise along the ring, by the
// family's stride where every id begins a node, as the engines' do; so
// the stride finds the node at once, and a binary search otherwise.
func (r *Recorder) labelOf(id uint64) int32 {
	n := r.txns.Len()
	if id == 0 || n == 0 || id < r.txns.At(0).ID {
		return 0
	}
	i := int(min((id-r.txns.At(0).ID)/(r.fam.StrideID(2)-r.fam.StrideID(1)), uint64(n-1)))
	if r.txns.At(i).ID != id {
		i = sort.Search(n, func(i int) bool { return r.txns.At(i).ID >= id })
		if i == n || r.txns.At(i).ID != id {
			return 0
		}
	}
	return r.txns.At(i).label
}

// LockFail records t losing a lock CAS (or reading a locked record) on
// the given cells held by the transaction with why id holder (0:
// unattributed).
func (r *Recorder) LockFail(at sim.Time, t *Txn, table layout.TableID, key layout.Key, mask, holder uint64) {
	r.edge(at, t, KindLockFail, holder, table, key, mask, 0)
}

// ValidationFail records a validation failure: a cell t read changed
// (or is locked) at commit time, by the transaction with why id holder
// (0: unattributed).
func (r *Recorder) ValidationFail(at sim.Time, t *Txn, table layout.TableID, key layout.Key, mask, holder uint64) {
	r.edge(at, t, KindValidation, holder, table, key, mask, 0)
}

// DependencyWait records a CREST local dependency wait: t blocked for
// wait on the transaction with why id holder.
func (r *Recorder) DependencyWait(at sim.Time, t *Txn, holder uint64, wait sim.Duration) {
	r.edge(at, t, KindDependency, holder, 0, 0, 0, wait)
}

// LocalWait records t blocked for wait on a compute-node-local object
// (cache-line mutex or admission queue). holder is the why id of the transaction
// that held the object when the waiter parked (0 when unknown).
func (r *Recorder) LocalWait(at sim.Time, t *Txn, table layout.TableID, key layout.Key, holder uint64, wait sim.Duration) {
	r.edge(at, t, KindLocalWait, holder, table, key, 0, wait)
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
	Edges       []Edge      // emission order; merged: (at, partition, seq)
	Txns        []TxnInfo   // begin order; merged: (start, partition, id)
	Labels      []GraphNode // the whole run's, by label; nil when none
	LabelEdges  []GraphEdge // the whole run's, by (from, to, kind); nil when none
	Hotspots    []Hotspot   // the whole run's, most contended first; nil when none
	Dropped     uint64      // edges evicted from the ring
	TxnsDropped uint64      // transaction nodes evicted
}

// Snapshot views the edge ring (oldest to newest), renders the
// transaction nodes and copies the counted label graph and hotspot
// ranking. A nil recorder yields an empty snapshot. The root and, on a
// partitioned recorder (see Shard), every child merge
// deterministically (trace.MergeByTime): edges order by (virtual time,
// partition, seq) and transaction nodes by (start time, partition,
// id), and the label graph adds up per label and label pair, the
// hotspots per cell. A lone member's rings come back as they are.
// Strided seqs and ids are kept as emitted so Cause references remain
// valid.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	members := r.fam.Members(r)
	edges := make([][]Edge, len(members))
	txns := make([][]*Txn, len(members))
	var hot hotspots
	var graph labelGraph
	out := &Snapshot{}
	for i, m := range members {
		edges[i] = m.edges.View()
		txns[i] = m.txns.View()
		for _, h := range m.hot.list {
			hot.add(h.Table, h.Key, cellMask(h.Cell), h.Count, h.Aborts, h.TotalWait)
		}
		graph.add(&m.graph)
		out.Dropped += m.edges.Dropped()
		out.TxnsDropped += m.txns.Dropped()
	}
	out.Edges = trace.MergeByTime(edges, func(e *Edge) sim.Time { return e.At }, nil)
	out.Txns = txnInfos(trace.MergeByTime(txns, func(t **Txn) sim.Time { return (*t).Start }, nil))
	out.Labels, out.LabelEdges = graph.lists()
	out.Hotspots = hot.ranked()
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

// hotspots aggregates contention per cell, one map probe per call of
// add: index maps a record to its hotRec, which holds the positions in
// list of the hotspots of its first cells; wide holds those of the
// rest. The zero value is empty and ready; once a cell is ranked,
// counting against it allocates nothing.
type hotspots struct {
	tables []layout.TableID        // the tables seen; a run has a few, found by a scan
	index  []map[layout.Key]uint32 // per table, a record's index in recs: a probe hashes one word
	recs   []hotRec
	wide   map[uint64]int32 // record index << 8 | 1 + cell -> 1 + position in list
	list   []Hotspot
}

// hotRec is one contended record: 1 + the position in list of its
// record-level hotspot (slot 0) and of cell c's (slot 1 + c); 0 while
// it has none.
type hotRec [8]int32

// add counts count edges, aborts abort causes and wait against every
// cell of mask on the record (its record-level hotspot for mask 0),
// creating each hotspot on first touch.
func (hs *hotspots) add(table layout.TableID, key layout.Key, mask, count, aborts uint64, wait sim.Duration) {
	ti := slices.Index(hs.tables, table)
	if ti < 0 {
		ti = len(hs.tables)
		hs.tables = append(hs.tables, table)
		hs.index = append(hs.index, map[layout.Key]uint32{})
	}
	keys := hs.index[ti]
	r, ok := keys[key]
	if !ok {
		r = uint32(len(hs.recs))
		keys[key] = r
		hs.recs = append(hs.recs, hotRec{})
	}
	for m := mask; ; m &= m - 1 {
		slot := 0 // record level
		if mask != 0 {
			slot = 1 + bits.TrailingZeros64(m)
		}
		var at int32
		if slot < len(hotRec{}) {
			if at = hs.recs[r][slot]; at == 0 {
				at = hs.place(table, key, slot)
				hs.recs[r][slot] = at
			}
		} else if at = hs.wide[uint64(r)<<8|uint64(slot)]; at == 0 {
			at = hs.place(table, key, slot)
			if hs.wide == nil {
				hs.wide = map[uint64]int32{}
			}
			hs.wide[uint64(r)<<8|uint64(slot)] = at
		}
		h := &hs.list[at-1]
		h.Count += count
		h.Aborts += aborts
		h.TotalWait += wait
		if m&(m-1) == 0 {
			return
		}
	}
}

// place appends the hotspot of the record's slot and returns 1 + its
// position.
func (hs *hotspots) place(table layout.TableID, key layout.Key, slot int) int32 {
	hs.list = append(hs.list, Hotspot{Table: table, Key: key, Cell: slot - 1})
	return int32(len(hs.list))
}

// ranked returns a copy of the hotspots, most contended first (edges
// plus abort causes), ties by (table, key, cell); nil when there are
// none.
func (hs *hotspots) ranked() []Hotspot {
	out := slices.Clone(hs.list)
	slices.SortFunc(out, func(a, b Hotspot) int {
		if c := cmp.Compare(b.Count+b.Aborts, a.Count+a.Aborts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Table, b.Table); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Cell, b.Cell)
	})
	return out
}

// cellMask is the mask that names a hotspot's cell to add: 0 for the
// record level.
func cellMask(cell int) uint64 {
	if cell < 0 {
		return 0
	}
	return 1 << uint(cell)
}

// labelGraph counts a member's label graph: a node per workload label,
// and per (waiter label, holder label) the edges of each kind between
// them. Node 0 is the unattributed one, "?". The pair table holds the
// square of the labels seen, a few dozen entries for the workloads'
// two to six. The zero value is empty and ready; once a label is
// known, counting an edge from or to it allocates nothing.
type labelGraph struct {
	index map[string]int32 // label -> position in nodes
	nodes []GraphNode
	pairs [][numKinds]pairWaits // waiter*len(nodes) + holder
}

// pairWaits is the edges of one kind between two labels.
type pairWaits struct {
	count uint64
	wait  sim.Duration
}

// intern returns label's position in nodes, adding its node, and its
// row and column of pairs, the first time.
func (g *labelGraph) intern(label string) int32 {
	if g.index == nil {
		g.index = map[string]int32{unattributedLabel: 0}
		g.nodes = []GraphNode{{Label: unattributedLabel}}
		g.pairs = make([][numKinds]pairWaits, 1)
	}
	if i, ok := g.index[label]; ok {
		return i
	}
	i := int32(len(g.nodes))
	g.index[label] = i
	g.nodes = append(g.nodes, GraphNode{Label: label})
	n, old := len(g.nodes), g.pairs
	g.pairs = make([][numKinds]pairWaits, n*n)
	for from := 0; from < n-1; from++ {
		copy(g.pairs[from*n:], old[from*(n-1):(from+1)*(n-1)])
	}
	return i
}

// waits returns the counters of the edges of kind from label from to
// label to.
func (g *labelGraph) waits(from, to int32, kind Kind) *pairWaits {
	return &g.pairs[int(from)*len(g.nodes)+int(to)][kind]
}

// add adds m's counts to g's.
func (g *labelGraph) add(m *labelGraph) {
	at := make([]int32, len(m.nodes)) // m's node -> g's
	for i, n := range m.nodes {
		at[i] = g.intern(n.Label)
		gn := &g.nodes[at[i]]
		gn.Txns, gn.Commits, gn.Aborts = gn.Txns+n.Txns, gn.Commits+n.Commits, gn.Aborts+n.Aborts
	}
	for p, kinds := range m.pairs {
		for k, w := range kinds {
			gw := g.waits(at[p/len(m.nodes)], at[p%len(m.nodes)], Kind(k))
			gw.count, gw.wait = gw.count+w.count, gw.wait+w.wait
		}
	}
}

// lists returns the nodes that began a transaction, by label, and the
// label pairs that recorded an edge, by (from, to, kind).
func (g *labelGraph) lists() (nodes []GraphNode, edges []GraphEdge) {
	order := make([]int, len(g.nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(g.nodes[a].Label, g.nodes[b].Label) })
	for _, from := range order {
		if g.nodes[from].Txns > 0 {
			nodes = append(nodes, g.nodes[from])
		}
		for _, to := range order {
			for k, w := range g.pairs[from*len(g.nodes)+to] {
				if w.count > 0 {
					edges = append(edges, GraphEdge{From: g.nodes[from].Label, To: g.nodes[to].Label,
						Kind: Kind(k), Count: w.count, TotalWait: w.wait})
				}
			}
		}
	}
	return nodes, edges
}
