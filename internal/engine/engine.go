// Package engine defines what the three transaction systems (CREST,
// FORD, Motor) share: the transaction representation handed to them by
// the workloads, per-attempt outcomes with abort classification, the
// timestamp oracle, local CPU cost and retry policies, and the
// serializability-checking history recorder used by tests.
package engine

import (
	"fmt"
	"math/rand"

	"crest/internal/layout"
	"crest/internal/sim"
)

// Op is one record access inside a transaction: the cells it reads,
// the cells it writes, and the stored-procedure logic that derives the
// written values from the read ones. Each record a transaction touches
// appears in exactly one Op, mirroring the paper's design assumption
// (§3) that stored procedures declare up front which columns of which
// records they read and update.
type Op struct {
	Table layout.TableID
	// Insert marks a whole-row insert: every cell is written and the
	// record is claimed by locking all cells (§4.4). It sits beside
	// Table, in the padding of its word, which keeps the programs that
	// embed their ops in their size classes (TestTxnObjectSizeClasses).
	Insert bool
	Key    layout.Key
	// KeyFn, if set, resolves the key when the op's block starts
	// executing — a key dependency in the paper's sense (§5.2): the
	// record cannot even be fetched before earlier blocks ran.
	KeyFn func(state any) layout.Key

	ReadCells  []int // cells whose current values Hook observes
	WriteCells []int // cells Hook produces new values for

	// Hook is the transaction logic: it receives the values of
	// ReadCells (in order) and returns the new values of WriteCells
	// (in order). It runs on the compute node and must be
	// deterministic given state and read values.
	//
	// The read values are borrowed and read-only: the strict engines
	// hand out copies that live as long as the attempt, CREST the
	// record cache's own base and version slices, which other
	// transactions are reading too. The returned values are immutable
	// once returned, for as long as anything refers to them: the
	// engines keep them without copying (CREST as versions, and as
	// the base cell a flush folds the newest one into), so running
	// the hook again — a retry — must produce new slices, not rewrite
	// the old ones (workload.Values is the store that does).
	Hook func(state any, read [][]byte) [][]byte
}

// ResolveKey returns the op's key, evaluating KeyFn if present.
func (o *Op) ResolveKey(state any) layout.Key {
	if o.KeyFn != nil {
		return o.KeyFn(state)
	}
	return o.Key
}

// IsWrite reports whether the op updates the record.
func (o *Op) IsWrite() bool { return len(o.WriteCells) > 0 || o.Insert }

// CellMask returns the cells the op touches, for conflict
// classification (always the true cells, whatever the lock covers).
func (o *Op) CellMask() uint64 {
	return layout.LockMask(o.ReadCells) | layout.LockMask(o.WriteCells)
}

// RunHook runs the op's hook on read and holds its output to the
// declaration: one value per write cell, each of the cell's size in
// sizes (the table's Schema.CellSizes). who names the engine in the
// panic.
func (o *Op) RunHook(who string, state any, read [][]byte, sizes []int) [][]byte {
	written := o.Hook(state, read)
	if len(written) != len(o.WriteCells) {
		panic(fmt.Sprintf("%s: hook returned %d values for %d write cells", who, len(written), len(o.WriteCells)))
	}
	for i, cell := range o.WriteCells {
		if len(written[i]) != sizes[cell] {
			panic(fmt.Sprintf("%s: hook wrote %d bytes to cell %d of size %d", who, len(written[i]), cell, sizes[cell]))
		}
	}
	return written
}

// Block is a pipeline stage of a transaction (§5.2): ops whose keys
// are mutually resolvable once the block starts. CREST releases local
// locks at block boundaries; the record-level baselines use blocks
// only as fetch barriers for key dependencies.
type Block struct {
	Ops []Op
}

// Txn is one transaction instance: an ordered list of blocks plus the
// workload-specific state threaded through every Hook.
type Txn struct {
	Label    string // transaction type, e.g. "Payment"
	Blocks   []Block
	State    any
	ReadOnly bool // no op writes; lets MVCC engines take snapshot reads
}

// ComputeReadOnly fills in ReadOnly from the ops. Key-dependent ops
// count as declared, so this is safe to call at construction time.
func (t *Txn) ComputeReadOnly() {
	for bi := range t.Blocks {
		for oi := range t.Blocks[bi].Ops {
			if t.Blocks[bi].Ops[oi].IsWrite() {
				t.ReadOnly = false
				return
			}
		}
	}
	t.ReadOnly = true
}

// NumOps returns the total op count.
func (t *Txn) NumOps() int {
	n := 0
	for i := range t.Blocks {
		n += len(t.Blocks[i].Ops)
	}
	return n
}

// NumWriteCells returns how many cell values the transaction's hooks
// produce: the write cells of every op.
func (t *Txn) NumWriteCells() int {
	n := 0
	for bi := range t.Blocks {
		for oi := range t.Blocks[bi].Ops {
			n += len(t.Blocks[bi].Ops[oi].WriteCells)
		}
	}
	return n
}

// AbortReason classifies why an attempt failed.
type AbortReason int

// Abort reasons across all three systems.
const (
	AbortNone       AbortReason = iota
	AbortLockFail               // remote lock CAS lost to another holder
	AbortValidation             // a read version/epoch changed before commit
	AbortDependency             // a depended-on local transaction aborted (CREST)
	AbortReverse                // TS_exec reverse ordering detected (CREST §5.2)
	AbortWait                   // local wait aborted (cache admission conflict)
)

// String names the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortLockFail:
		return "lock-conflict"
	case AbortValidation:
		return "validation"
	case AbortDependency:
		return "dependency"
	case AbortReverse:
		return "reverse-order"
	case AbortWait:
		return "wait"
	}
	return fmt.Sprintf("AbortReason(%d)", int(r))
}

// Attempt is the outcome of executing a transaction once.
type Attempt struct {
	Committed bool
	Reason    AbortReason
	// FalseConflict is set on aborts whose conflicting transaction
	// touched disjoint cells of the same record — the paper's "false
	// conflict" (§2.3). Filled by instrumentation, never consulted by
	// protocol code.
	FalseConflict bool
	// CrossShard is set on write attempts whose records spanned shard
	// groups (they paid, or would have paid, the cross-shard prepare
	// round). Always false on single-group topologies.
	CrossShard bool

	// Phase durations of this attempt (virtual time).
	Exec     sim.Duration
	Validate sim.Duration
	Commit   sim.Duration
}

// Total returns the attempt's end-to-end duration.
func (a Attempt) Total() sim.Duration { return a.Exec + a.Validate + a.Commit }

// Coordinator executes transactions one attempt at a time. Each
// coordinator is owned by one simulated process.
type Coordinator interface {
	// Execute runs one attempt of t on process p.
	Execute(p *sim.Proc, t *Txn) Attempt
}

// TSO is the logical timestamp oracle behind TS_commit. The paper does
// not pin down its clock source; a shared monotonic counter is the
// standard substitution and is free of cost in the cooperative
// simulator (exactly one process runs at a time).
//
// On a partitioned simulation a shared counter would be both a data
// race and a nondeterminism source, so partition views substitute a
// hybrid logical clock (NewPartitionTSO): timestamps embed the
// partition's virtual clock in the high bits and the partition id in
// the low bits. Uniqueness is structural (distinct low bits), and the
// serial order stays externally consistent because any cross-partition
// observation travels the fabric, which advances virtual time by at
// least the world's lookahead — so an observer's timestamp always
// exceeds the observed commit's.
type TSO struct {
	last uint64
	env  *sim.Env // non-nil selects the hybrid-logical-clock mode
	part uint64
}

// Hybrid-logical-clock timestamp layout for partitioned runs:
// [ virtual ns : 34 ][ seq : 8 ][ partition : 6 ]. Six partition bits
// cover memnode.MaxShards; eight sequence bits absorb draws within one
// nanosecond (overflow carries into the clock bits, staying monotone).
const (
	hlcPartBits = 6
	hlcSeqBits  = 8
	hlcShift    = hlcPartBits + hlcSeqBits
)

// NewPartitionTSO returns partition part's oracle, drawing from env's
// virtual clock and floored above every timestamp the root oracle has
// issued (load-time draws), so runtime commits always serialize after
// the initial state.
func NewPartitionTSO(env *sim.Env, part int, floor uint64) *TSO {
	if part < 0 || part >= 1<<hlcPartBits {
		panic(fmt.Sprintf("engine: partition %d exceeds the TSO's %d partition bits", part, hlcPartBits))
	}
	return &TSO{env: env, part: uint64(part), last: floor<<hlcShift | uint64(part)}
}

// Next returns the next timestamp, starting from 1 (dense mode) or
// above the hybrid-logical-clock floor (partition mode).
func (t *TSO) Next() uint64 {
	if t.env == nil {
		t.last++
	} else {
		cand := uint64(t.env.Now())<<hlcShift | t.part
		if cand <= t.last {
			// Same-instant redraw: bump the sequence field. The
			// partition bits are below it, so they are preserved.
			cand = t.last + 1<<hlcPartBits
		}
		t.last = cand
	}
	if t.last > layout.MaxTS48 {
		panic("engine: timestamp oracle exceeded 48 bits")
	}
	return t.last
}

// Last returns the most recently issued timestamp.
func (t *TSO) Last() uint64 { return t.last }

// CostModel charges virtual CPU time for compute-node work. The
// simulation does not model core scheduling (see DESIGN.md); these
// small fixed costs keep local execution from being free so that
// pipelining and cache management have measurable effect.
type CostModel struct {
	PerOp   sim.Duration // per record access (hashing, bookkeeping)
	PerCell sim.Duration // per cell touched (copy, hook work)
}

// DefaultCostModel returns the costs used throughout the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{PerOp: 200 * sim.Nanosecond, PerCell: 50 * sim.Nanosecond}
}

// OpCost returns the local cost of touching cells cells of one record.
func (c CostModel) OpCost(cells int) sim.Duration {
	return c.PerOp + sim.Duration(cells)*c.PerCell
}

// RetryPolicy is the exponential backoff applied between attempts of
// an aborted transaction.
type RetryPolicy struct {
	Base      sim.Duration
	Max       sim.Duration
	JitterPct float64
}

// DefaultRetryPolicy is the exponential backoff the harness applies
// between attempts. Beyond fairness, the growing backoff acts as
// congestion control: it sheds concurrent write intents when hot
// records thrash, which measurably stabilizes every system at high
// coordinator counts.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Base: 4 * sim.Microsecond, Max: 128 * sim.Microsecond, JitterPct: 50}
}

// Backoff returns the wait before retry number attempt (1-based).
func (r RetryPolicy) Backoff(attempt int, rng *rand.Rand) sim.Duration {
	d := r.Base
	for i := 1; i < attempt && d < r.Max; i++ {
		d *= 2
	}
	if d > r.Max {
		d = r.Max
	}
	if r.JitterPct > 0 {
		d += sim.Duration(rng.Float64() * r.JitterPct / 100 * float64(d))
	}
	return d
}
