package engine

import (
	"crest/internal/causality"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
)

// AttemptTimer measures one transaction attempt: per-phase virtual
// time, the fabric verbs attributable to the attempt, and the trace
// span. It replaces the per-engine ad-hoc timers with one shared
// implementation so every engine reports phases the same way and every
// phase transition reaches the trace.
//
// Usage: BeginAttempt at the top of Execute, Phase at each protocol
// phase boundary, Fail at an abort site (before any release/cleanup
// work, so the failing phase's duration is frozen there), and Done as
// the final statement of every return path (after cleanup, so the verb
// diff includes release traffic — aborting attempts pay for their lock
// releases).
//
// Attempt folds the phases the way the pre-existing timers did:
// Exec = execute + lock, Commit = log + apply, and release time after
// a Fail is excluded. The trace keeps the finer five-phase split.
type AttemptTimer struct {
	db     *DB
	p      *sim.Proc
	span   *trace.Span
	why    *causality.Txn
	verbs0 rdma.Stats
	start  sim.Time
	mark   sim.Time
	cur    trace.Phase
	dur    [trace.NumPhases]sim.Duration
	failed bool
	reason AbortReason
	falseC bool
	shard  int
	cross  bool
}

// BeginAttempt starts timing one attempt of t on coordinator coord,
// whose log (and therefore commit decision) lives on home shard
// group home, opening (or, on a retry of the same *Txn, resuming) its
// trace span.
func BeginAttempt(db *DB, p *sim.Proc, coord uint64, home int, t *Txn) AttemptTimer {
	at := AttemptTimer{db: db, p: p, verbs0: db.VerbStats(), start: p.Now(), mark: p.Now(), cur: trace.PhaseExec, shard: home}
	o := &db.Obs
	if o.Trace != nil {
		at.span = o.Trace.StartSpan(p, coord, t.Label, t)
		o.Trace.EnterPhase(at.mark, at.span, trace.PhaseExec)
	}
	at.why = o.Why.Begin(p, coord, t.Label, t)
	o.Flight.Begin(p, coord, home, t.Label, t)
	o.met.beginAttempt(home)
	return at
}

// MarkCrossShard records that the attempt's write set spans shard
// groups (it will pay the cross-shard prepare round at commit). The
// first call per attempt counts; repeats are no-ops.
func (at *AttemptTimer) MarkCrossShard() {
	if at.cross {
		return
	}
	at.cross = true
	at.db.Obs.met.crossShard()
}

// CrossShard reports whether MarkCrossShard was called this attempt.
func (at *AttemptTimer) CrossShard() bool { return at.cross }

// WhyID returns the attempt's causality txn id (0 when recording is
// off), for engines that need to stamp holder identity onto shared
// state (CREST local objects and flush plans).
func (at *AttemptTimer) WhyID() uint64 { return at.why.WhyID() }

// Span returns the attempt's trace span (nil when tracing is off).
func (at *AttemptTimer) Span() *trace.Span { return at.span }

// Start returns the virtual time the attempt began.
func (at *AttemptTimer) Start() sim.Time { return at.start }

// Phase transitions to ph, charging the elapsed time to the phase
// being left.
func (at *AttemptTimer) Phase(ph trace.Phase) {
	now := at.p.Now()
	at.dur[at.cur] += now.Sub(at.mark)
	at.mark = now
	at.cur = ph
	at.db.Obs.Trace.EnterPhase(now, at.span, ph)
	at.db.Obs.Flight.Phase(at.p, ph)
}

// Fail marks the attempt aborted: the failing phase's duration is
// frozen here and subsequent time (lock release, write-back) accrues
// to the untallied release phase, exactly as the pre-existing timers
// captured phase durations before cleanup.
func (at *AttemptTimer) Fail(reason AbortReason, falseConflict bool) {
	now := at.p.Now()
	at.dur[at.cur] += now.Sub(at.mark)
	at.mark = now
	at.cur = trace.PhaseRelease
	at.failed = true
	at.reason = reason
	at.falseC = falseConflict
	o := &at.db.Obs
	if o.Trace != nil {
		o.Trace.Abort(now, at.span, reason.String(), falseConflict)
		o.Trace.EnterPhase(now, at.span, trace.PhaseRelease)
	}
	o.Why.Abort(now, at.why, reason.String())
	o.Flight.Fail(at.p, reason.String(), reason == AbortWait)
	o.met.fail(reason, falseConflict, at.cross)
}

// Done closes the attempt and returns its outcome. The verb diff is
// taken here — after any cleanup — matching how the engines have
// always attributed release traffic to the attempt.
func (at *AttemptTimer) Done() Attempt {
	now := at.p.Now()
	o := &at.db.Obs
	if !at.failed {
		at.dur[at.cur] += now.Sub(at.mark)
		o.Trace.Commit(now, at.span)
		o.Why.Commit(now, at.why)
	}
	// Flight keeps charging past a Fail (release time stays in the
	// budget, which must sum to elapsed virtual time), so it closes on
	// every path.
	o.Flight.Done(at.p, !at.failed)
	o.met.done(!at.failed, now.Sub(at.start), at.shard)
	return Attempt{
		Committed:     !at.failed,
		Reason:        at.reason,
		FalseConflict: at.falseC,
		CrossShard:    at.cross,
		Exec:          at.dur[trace.PhaseExec] + at.dur[trace.PhaseLock],
		Validate:      at.dur[trace.PhaseValidate],
		Commit:        at.dur[trace.PhaseLog] + at.dur[trace.PhaseApply],
		Verbs:         at.db.VerbStats().Sub(at.verbs0),
	}
}
