// Package flight is the tail-latency forensics layer of the
// observability stack: a deterministic per-transaction flight recorder
// and critical-path analyzer. Where trace records spans, metrics
// records windowed aggregates and causality records wait-for edges,
// flight joins those signals into one additive model: every logical
// transaction's virtual-time latency is decomposed into a Budget whose
// components — queueing, retry backoff, per-verb-class wire time,
// lock/dependency wait, and per-phase coordinator compute residual —
// sum exactly to the transaction's measured latency (last attempt end
// minus first attempt begin).
//
// Recording is host-side only: it consumes no virtual time, no
// simulator events and no randomness, so a flight-recorded run is
// byte-identical to a plain run. Every method is nil-safe — a disabled
// recorder is a nil pointer — and the per-transaction hot path
// allocates nothing after warm-up: records are pooled, the summary
// ring allocates its storage on the first summary (and on the first
// after a snapshot viewed it), and exemplar buckets hold fixed-size
// arrays.
//
// Bounded memory comes from two tiers. Every finalized transaction
// leaves a compact TxnBudget summary in a ring; only the top-K
// outliers per (shard, dominant-component) bucket keep their full
// per-attempt flight record, ranked deterministically by (total
// latency desc, end asc, id asc) so exemplar capture is byte-identical
// at any worker count. Partitioned runs use the same Shard(part,
// parts) pattern as the trace/metrics/causality recorders: one child
// per partition written lock-free by its owning worker, ids strided by
// the partition count, merged deterministically at Snapshot.
package flight

import (
	"fmt"
	"sort"

	"crest/internal/sim"
	"crest/internal/trace"
)

// Component is one slot of the additive latency budget.
type Component uint8

// Budget components. The wire components mirror VerbClass; the
// compute components mirror trace.Phase (each phase's duration minus
// the wire, wait and backoff time spent inside it).
const (
	// CompQueue: inter-attempt gap after an admission-wait abort —
	// time the harness spent re-queueing the transaction.
	CompQueue Component = iota
	// CompBackoff: inter-attempt exponential backoff after a conflict
	// abort, plus intra-attempt lock-retry backoff sleeps.
	CompBackoff
	// CompWire*: time parked on the RDMA fabric, split by verb class.
	CompWireRead
	CompWireWrite
	CompWireCAS
	CompWireMaskedCAS
	CompWireMixed
	// CompWait: time blocked on another transaction (local-object
	// waits, CREST dependency waits) — the causality layer's edges,
	// seen as durations.
	CompWait
	// CompExec..CompRelease: per-phase coordinator compute residual.
	CompExec
	CompLock
	CompValidate
	CompLog
	CompApply
	CompRelease
	NumComponents
)

// String names the component.
func (c Component) String() string {
	switch c {
	case CompQueue:
		return "queue"
	case CompBackoff:
		return "backoff"
	case CompWireRead:
		return "wire-read"
	case CompWireWrite:
		return "wire-write"
	case CompWireCAS:
		return "wire-cas"
	case CompWireMaskedCAS:
		return "wire-mcas"
	case CompWireMixed:
		return "wire-mixed"
	case CompWait:
		return "lock-wait"
	case CompExec:
		return "exec"
	case CompLock:
		return "lock"
	case CompValidate:
		return "validate"
	case CompLog:
		return "log"
	case CompApply:
		return "apply"
	case CompRelease:
		return "release"
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// phaseComp maps a trace phase to its compute-residual component.
func phaseComp(ph trace.Phase) Component { return CompExec + Component(ph) }

// VerbClass classifies the verbs of one fabric park for wire-time
// attribution. A park posting a uniform batch gets that verb's class;
// doorbell batches mixing verbs get ClassMixed.
type VerbClass uint8

// Verb classes.
const (
	ClassRead VerbClass = iota
	ClassWrite
	ClassCAS
	ClassMaskedCAS
	ClassMixed
	NumVerbClasses
)

// String names the verb class.
func (v VerbClass) String() string {
	switch v {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassCAS:
		return "cas"
	case ClassMaskedCAS:
		return "mcas"
	case ClassMixed:
		return "mixed"
	}
	return fmt.Sprintf("VerbClass(%d)", uint8(v))
}

// Component returns the budget component the class charges.
func (v VerbClass) Component() Component { return CompWireRead + Component(v) }

// Budget is one transaction's additive latency decomposition. The
// components sum exactly to the transaction's virtual-time latency.
type Budget [NumComponents]sim.Duration

// Total sums the components.
func (b *Budget) Total() sim.Duration {
	var t sim.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Dominant returns the largest component (lowest index on ties).
func (b *Budget) Dominant() Component {
	best := Component(0)
	for c := Component(1); c < NumComponents; c++ {
		if b[c] > b[best] {
			best = c
		}
	}
	return best
}

// maxAttemptDetail bounds the per-attempt detail kept on a record;
// attempts past the bound fold into the last slot (Folded counts
// them), keeping the struct fixed-size so the hot path never grows it.
const maxAttemptDetail = 8

// attemptRec is one attempt's detail on a live record.
type attemptRec struct {
	start      sim.Time
	end        sim.Time
	outcome    string // "" in flight, "commit", or the abort reason
	wait       bool   // aborted for admission wait: the next gap is queue time
	gap        sim.Duration
	gapQueue   bool
	folded     int
	dur        [trace.NumPhases]sim.Duration
	wire       [NumVerbClasses]sim.Duration
	wireP      [trace.NumPhases]sim.Duration
	waitP      [trace.NumPhases]sim.Duration
	backP      [trace.NumPhases]sim.Duration
	waitD      sim.Duration
	waitMax    sim.Duration
	waitHolder uint64
}

// Record is the live per-transaction flight record, the handle the
// engine keeps in the observer context of the process running the
// transaction. Records are pooled; one covers every attempt of a
// logical transaction.
type Record struct {
	id        uint64
	label     string
	coord     uint64
	shard     int
	begin     sim.Time
	end       sim.Time // last completed charge (attempt end)
	attempts  int
	committed bool
	reason    string
	skip      bool // began before warmup: tracked, never published

	budget      Budget
	waitHolder  uint64
	waitMax     sim.Duration
	waitAttempt int

	att  [maxAttemptDetail]attemptRec
	nAtt int

	liveIdx int
}

// curAtt returns the slot accumulating the current attempt.
func (x *Record) curAtt() *attemptRec { return &x.att[x.nAtt-1] }

// bucketKey addresses one exemplar bucket: the transaction's home
// shard group and the dominant budget component.
type bucketKey struct {
	shard int
	comp  Component
}

// exemplarK is the full records kept per (shard, component) bucket.
const exemplarK = 4

// bucket holds the top-exemplarK outlier records for one key.
type bucket struct {
	recs [exemplarK]*Record
	n    int
}

// DefaultTxnCapacity bounds the summary ring.
const DefaultTxnCapacity = 1 << 16

// Options size a recorder.
type Options struct {
	// TxnCapacity bounds the summary ring (DefaultTxnCapacity when <= 0).
	TxnCapacity int
}

// Recorder collects flight records. It is owned by one simulation
// environment; the cooperative scheduler serializes all emissions, so
// no locking is needed. The zero Recorder is unusable; a nil *Recorder
// is the disabled state and every method tolerates it.
type Recorder struct {
	warmup sim.Time
	ring   trace.Ring[TxnBudget]

	buckets map[bucketKey]*bucket
	free    []*Record
	live    []*Record

	// Partitioned mode (Shard, see trace.Family).
	fam trace.Family[Recorder]
}

// NewRecorder returns an enabled recorder.
func NewRecorder(opt Options) *Recorder {
	if opt.TxnCapacity <= 0 {
		opt.TxnCapacity = DefaultTxnCapacity
	}
	return &Recorder{
		ring:    trace.NewRing[TxnBudget](opt.TxnCapacity),
		buckets: map[bucketKey]*bucket{},
	}
}

// Enabled reports whether the recorder collects flight records.
func (r *Recorder) Enabled() bool { return r != nil }

// SetWarmup excludes transactions beginning before the cutoff from
// capture, matching the benchmark's measurement window. Call before
// the run (and before Shard) — children inherit the cutoff.
func (r *Recorder) SetWarmup(cutoff sim.Time) {
	if r == nil {
		return
	}
	for _, m := range r.fam.Members(r) {
		m.warmup = cutoff
	}
}

// Shard returns the per-partition child recorder for part out of
// parts (see trace.Family.Shard). Each child must be written by exactly
// one partition (one sim.Env); Snapshot on the root merges all children
// deterministically. With parts <= 1 (or a nil recorder) Shard returns
// the receiver.
func (r *Recorder) Shard(part, parts int) *Recorder {
	if r == nil {
		return nil
	}
	return r.fam.Shard("flight", r, part, parts, func(f trace.Family[Recorder]) *Recorder {
		return &Recorder{warmup: r.warmup, ring: trace.NewRing[TxnBudget](r.ring.Cap()),
			buckets: map[bucketKey]*bucket{}, fam: f}
	})
}

// Dropped reports how many summaries were evicted from the ring,
// summed across partition children.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.fam.Sum(r, func(m *Recorder) uint64 { return m.ring.Dropped() })
}

// Len reports the number of buffered summaries, summed across
// partition children.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(r.fam.Sum(r, func(m *Recorder) uint64 { return uint64(m.ring.Len()) }))
}

// alloc returns a record shell from the pool (warm-up allocates).
func (r *Recorder) alloc() *Record {
	if n := len(r.free); n > 0 {
		x := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return x
	}
	return &Record{}
}

// release resets a record and returns it to the pool.
func (r *Recorder) release(x *Record) {
	*x = Record{}
	r.free = append(r.free, x)
}

// Begin opens the flight record of the transaction s identifies at its
// first attempt, beginning at time at, and returns it (nil from a nil
// recorder). home is the transaction's home shard group.
func (r *Recorder) Begin(at sim.Time, s *trace.Span, home int) *Record {
	if r == nil {
		return nil
	}
	x := r.alloc()
	x.id, x.label, x.coord, x.shard = s.ID, s.Label, s.Coord, home
	x.begin, x.end = at, at
	x.skip = at < r.warmup
	x.liveIdx = len(r.live)
	r.live = append(r.live, x)
	x.openAttempt(at, 0, false)
	return x
}

// Retry opens x's next attempt at time at, charging the gap since the
// previous attempt ended to queue (after an admission-wait abort) or
// backoff.
func (r *Recorder) Retry(at sim.Time, x *Record) {
	if x == nil {
		return
	}
	gap := at.Sub(x.end)
	queue := x.curAtt().wait
	if queue {
		x.budget[CompQueue] += gap
	} else {
		x.budget[CompBackoff] += gap
	}
	x.end = at // keep Total == End-Begin for mid-retry snapshots
	x.openAttempt(at, gap, queue)
}

// Abandon finalizes x, still open after an aborted attempt, as aborted:
// the harness gave up retrying it.
func (r *Recorder) Abandon(x *Record) {
	if x != nil {
		r.finalize(x)
	}
}

// openAttempt starts the next attempt slot at time now. Attempts past
// maxAttemptDetail fold into the last slot.
func (x *Record) openAttempt(now sim.Time, gap sim.Duration, gapQueue bool) {
	x.attempts++
	if x.nAtt < maxAttemptDetail {
		x.nAtt++
		a := x.curAtt()
		*a = attemptRec{start: now, gap: gap, gapQueue: gapQueue}
	} else {
		a := x.curAtt()
		// The previous Done charged this slot's cumulative totals into
		// the budget; back them out so the next Done — which re-charges
		// the grown totals — keeps the sum exact.
		x.charge(a, -1)
		a.folded++
		a.outcome, a.wait = "", false
		a.gap += gap
		if gapQueue {
			a.gapQueue = true
		}
	}
}

// charge folds attempt a's accumulators into the budget with the given
// sign: residual compute per phase, plus the wire, wait and backoff
// time carved out of each phase. Folded attempts re-charge their
// slot's grown totals on every Done, so openAttempt backs out the
// previous totals with sign -1 first.
func (x *Record) charge(a *attemptRec, sign sim.Duration) {
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		x.budget[phaseComp(ph)] += sign * (a.dur[ph] - a.wireP[ph] - a.waitP[ph] - a.backP[ph])
		x.budget[CompBackoff] += sign * a.backP[ph]
		x.budget[CompWait] += sign * a.waitP[ph]
	}
	for v := VerbClass(0); v < NumVerbClasses; v++ {
		x.budget[v.Component()] += sign * a.wire[v]
	}
}

// Wire charges one fabric park — lat of virtual time just consumed, in
// phase ph, suspended on posted verbs of the given class — to x's
// current attempt.
func (r *Recorder) Wire(x *Record, ph trace.Phase, class VerbClass, lat sim.Duration) {
	if x == nil {
		return
	}
	a := x.curAtt()
	a.wire[class] += lat
	a.wireP[ph] += lat
}

// Wait charges x one blocked-on-another-transaction window (a causality
// wait-for edge, seen as a duration) of d that just ended in phase ph.
// holder is the blocking transaction's why id (0 when unattributed).
func (r *Recorder) Wait(x *Record, ph trace.Phase, holder uint64, d sim.Duration) {
	if x == nil {
		return
	}
	a := x.curAtt()
	a.waitD += d
	a.waitP[ph] += d
	if d > a.waitMax {
		a.waitMax, a.waitHolder = d, holder
	}
	if d > x.waitMax {
		x.waitMax, x.waitHolder, x.waitAttempt = d, holder, x.attempts
	}
}

// Backoff charges x an intra-attempt backoff sleep of d (a lock-retry
// pause) that just ended in phase ph.
func (r *Recorder) Backoff(x *Record, ph trace.Phase, d sim.Duration) {
	if x == nil {
		return
	}
	x.curAtt().backP[ph] += d
}

// Fail marks x's current attempt aborted for reason. isWait flags an
// admission-wait abort, whose re-queue gap counts as queue rather than
// backoff time.
func (r *Recorder) Fail(x *Record, reason string, isWait bool) {
	if x == nil {
		return
	}
	a := x.curAtt()
	a.outcome = reason
	a.wait = isWait
	x.reason = reason
}

// Done closes x's current attempt at time at, folding it into the
// budget. dur is the attempt's virtual time per phase as
// engine.AttemptTimer measured it, the release phase after a Fail
// included, which keeps the budget's sum exactly equal to the
// transaction's elapsed virtual time. A committed Done finalizes the
// record, and the caller drops it.
func (r *Recorder) Done(at sim.Time, x *Record, dur *[trace.NumPhases]sim.Duration, committed bool) {
	if x == nil {
		return
	}
	a := x.curAtt()
	for ph, d := range dur {
		a.dur[ph] += d
	}
	a.end = at
	if committed {
		a.outcome = "commit"
	}
	x.charge(a, 1)
	x.end = at
	if committed {
		x.committed = true
		r.finalize(x)
	}
}

// finalize publishes a record: its summary enters the ring and the
// full record either joins its exemplar bucket or returns to the pool.
func (r *Recorder) finalize(x *Record) {
	// Swap-remove from the live list.
	last := len(r.live) - 1
	if moved := r.live[last]; moved != x {
		r.live[x.liveIdx] = moved
		moved.liveIdx = x.liveIdx
	}
	r.live[last] = nil
	r.live = r.live[:last]
	if x.skip {
		r.release(x)
		return
	}
	*r.ring.Next() = x.summary()
	if !r.offer(x) {
		r.release(x)
	}
}

// summary compacts a record into its ring entry.
func (x *Record) summary() TxnBudget {
	return TxnBudget{
		ID: x.id, Label: x.label, Coord: x.coord, Shard: x.shard,
		Begin: x.begin, End: x.end, Attempts: x.attempts,
		Committed: x.committed, Reason: x.reason, Budget: x.budget,
		WaitHolder: x.waitHolder, WaitMax: x.waitMax,
	}
}

// better ranks exemplar candidates: higher total latency wins; ties
// break toward the earlier end time, then the lower id — a total
// order, so capture is deterministic at any worker count.
func better(a, b *Record) bool {
	at, bt := a.budget.Total(), b.budget.Total()
	if at != bt {
		return at > bt
	}
	if a.end != b.end {
		return a.end < b.end
	}
	return a.id < b.id
}

// offer inserts a finalized record into its (shard, dominant
// component) bucket, evicting the weakest resident if the bucket is
// full. It reports whether the record was retained.
func (r *Recorder) offer(x *Record) bool {
	key := bucketKey{x.shard, x.budget.Dominant()}
	b := r.buckets[key]
	if b == nil {
		b = &bucket{}
		r.buckets[key] = b
	}
	if b.n < exemplarK {
		b.recs[b.n] = x
		b.n++
		return true
	}
	weak := 0
	for i := 1; i < b.n; i++ {
		if better(b.recs[weak], b.recs[i]) {
			weak = i
		}
	}
	if !better(x, b.recs[weak]) {
		return false
	}
	evict := b.recs[weak]
	b.recs[weak] = x
	r.release(evict)
	return true
}

// TxnBudget is one transaction's compact flight summary: identity,
// span, outcome, and the additive latency budget.
type TxnBudget struct {
	ID         uint64       `json:"id"`
	Label      string       `json:"label"`
	Coord      uint64       `json:"coord"`
	Shard      int          `json:"shard"`
	Begin      sim.Time     `json:"begin"`
	End        sim.Time     `json:"end"`
	Attempts   int          `json:"attempts"`
	Committed  bool         `json:"committed"`
	Reason     string       `json:"reason,omitempty"`
	Budget     Budget       `json:"budget"`
	WaitHolder uint64       `json:"waitHolder,omitempty"`
	WaitMax    sim.Duration `json:"waitMax,omitempty"`
}

// Total is the transaction's measured virtual-time latency — by
// construction, End.Sub(Begin) for finalized records.
func (t *TxnBudget) Total() sim.Duration { return t.Budget.Total() }

// AttemptInfo is one attempt's detail on an exemplar.
type AttemptInfo struct {
	Start        sim.Time                      `json:"start"`
	End          sim.Time                      `json:"end"`
	Outcome      string                        `json:"outcome"`
	Gap          sim.Duration                  `json:"gap,omitempty"`      // inter-attempt gap before this attempt
	GapQueue     bool                          `json:"gapQueue,omitempty"` // the gap was queue (admission) time
	Folded       int                           `json:"folded,omitempty"`   // extra attempts folded into this slot
	Phases       [trace.NumPhases]sim.Duration `json:"phases"`
	Wire         [NumVerbClasses]sim.Duration  `json:"wire"`
	WirePhase    [trace.NumPhases]sim.Duration `json:"wirePhase"`
	WaitPhase    [trace.NumPhases]sim.Duration `json:"waitPhase"`
	BackoffPhase [trace.NumPhases]sim.Duration `json:"backoffPhase"`
	Wait         sim.Duration                  `json:"wait,omitempty"`
	WaitMax      sim.Duration                  `json:"waitMax,omitempty"`
	WaitHolder   uint64                        `json:"waitHolder,omitempty"`
}

// Exemplar is one captured outlier: the summary plus per-attempt
// detail, bucketed by dominant budget component.
type Exemplar struct {
	TxnBudget
	Bucket Component     `json:"bucket"`
	Detail []AttemptInfo `json:"detail"`
}

// Snapshot is the recorder's state at one instant, the input to every
// view and exporter. Transactions still open at snapshot time
// (abandoned by the harness drain or mid-retry) appear with their
// budget as of the last completed attempt and Committed false. Txns may
// alias the recorder's ring (trace.Ring.View), which never writes into
// it again: a snapshot stays as it was taken while the run goes on, and
// must not be written to.
type Snapshot struct {
	Txns      []TxnBudget // begin order; merged: (begin, partition, id)
	Exemplars []Exemplar  // bucket order: (shard, component), ranked within
	Dropped   uint64      // summaries evicted from the ring
}

// detail copies a record's attempt slots.
func (x *Record) detail() []AttemptInfo {
	out := make([]AttemptInfo, x.nAtt)
	for i := 0; i < x.nAtt; i++ {
		a := &x.att[i]
		out[i] = AttemptInfo{
			Start: a.start, End: a.end, Outcome: a.outcome,
			Gap: a.gap, GapQueue: a.gapQueue, Folded: a.folded,
			Phases: a.dur, Wire: a.wire, WirePhase: a.wireP,
			WaitPhase: a.waitP, BackoffPhase: a.backP,
			Wait: a.waitD, WaitMax: a.waitMax, WaitHolder: a.waitHolder,
		}
	}
	return out
}

// Snapshot puts the summaries in begin order and copies the exemplar
// buckets (a nil recorder yields an empty snapshot). A partitioned
// recorder merges every child deterministically: summaries order by
// (begin, partition, id) and each bucket re-ranks the union of the
// children's residents, keeping the global top K — byte-identical
// output at any worker count, since partitioning is fixed by the shard
// count, not the worker count.
//
// Summaries enter the ring when a transaction ends, so the ring is
// rarely in begin order: the members' ring views, each followed by the
// summaries of its open records, are sorted together and written once
// (trace.SortByTime). A ring already in order, with no open record,
// needs no sorting and an unsharded one is not copied at all.
func (r *Recorder) Snapshot() *Snapshot {
	out := &Snapshot{Txns: []TxnBudget{}, Exemplars: []Exemplar{}}
	if r == nil {
		return out
	}
	members := r.fam.Members(r)
	views := make([][]TxnBudget, len(members))
	open := make([][]TxnBudget, len(members))
	lens := make([]int, len(members))
	anyOpen := false
	byBucket := map[bucketKey][]*Record{}
	for i, c := range members {
		out.Dropped += c.ring.Dropped()
		views[i] = c.ring.View()
		// Open records surface as aborted-so-far summaries (no
		// mutation: the run may continue after the snapshot).
		for _, x := range c.live {
			if !x.skip {
				open[i] = append(open[i], x.summary())
			}
		}
		lens[i] = len(views[i]) + len(open[i])
		anyOpen = anyOpen || len(open[i]) > 0
		for key, b := range c.buckets {
			byBucket[key] = append(byBucket[key], b.recs[:b.n]...)
		}
	}
	key := func(t *TxnBudget) (sim.Time, uint64) { return t.Begin, t.ID }
	if !anyOpen {
		out.Txns = trace.MergeByTime(views, key, nil)
	} else {
		out.Txns = trace.SortByTime(lens, func(m, j int) *TxnBudget {
			if v := views[m]; j < len(v) {
				return &v[j]
			}
			return &open[m][j-len(views[m])]
		}, key, nil)
	}
	keys := make([]bucketKey, 0, len(byBucket))
	for key := range byBucket {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].shard != keys[j].shard {
			return keys[i].shard < keys[j].shard
		}
		return keys[i].comp < keys[j].comp
	})
	for _, key := range keys {
		cands := byBucket[key]
		sort.Slice(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
		for i := 0; i < min(len(cands), exemplarK); i++ {
			x := cands[i]
			out.Exemplars = append(out.Exemplars, Exemplar{
				TxnBudget: x.summary(), Bucket: key.comp, Detail: x.detail(),
			})
		}
	}
	return out
}

// Txn looks up a summary by id (nil when unknown or evicted).
func (s *Snapshot) Txn(id uint64) *TxnBudget {
	for i := range s.Txns {
		if s.Txns[i].ID == id {
			return &s.Txns[i]
		}
	}
	return nil
}

// Exemplar looks up a captured outlier by id (nil when not captured).
func (s *Snapshot) Exemplar(id uint64) *Exemplar {
	for i := range s.Exemplars {
		if s.Exemplars[i].ID == id {
			return &s.Exemplars[i]
		}
	}
	return nil
}
