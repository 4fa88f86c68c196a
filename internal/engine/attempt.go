package engine

import (
	"crest/internal/sim"
	"crest/internal/trace"
)

// AttemptTimer measures one transaction attempt: per-phase virtual
// time and — through the process's observer context — every view of
// it. It replaces the per-engine ad-hoc timers with one shared
// implementation so every engine reports phases the same way, and its
// phase clock is the only one: the trace records its transitions and
// flight charges its durations.
//
// Usage: BeginAttempt at the top of Execute, Phase at each protocol
// phase boundary, Fail at an abort site (before any release/cleanup
// work, so the failing phase's duration is frozen there), and Done as
// the final statement of every return path (after cleanup, so the
// release time reaches flight's budget).
//
// Attempt folds the phases the way the pre-existing timers did:
// Exec = execute + lock, Commit = log + apply, and the release time
// after a Fail, which flight's budget does count, is left out. The trace
// keeps the finer five-phase split.
type AttemptTimer struct {
	db     *DB
	p      *sim.Proc
	ctx    *txnCtx // p's observer context; nil when no view records
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
// group home. With a trace, why, flight or history recorder attached it
// opens the attempt on the process's observer context: a retry of the
// same *Txn resumes the transaction, anything else begins a new one.
func BeginAttempt(db *DB, p *sim.Proc, coord uint64, home int, t *Txn) AttemptTimer {
	at := AttemptTimer{db: db, p: p, start: p.Now(), mark: p.Now(), cur: trace.PhaseExec, shard: home}
	o := &db.Obs
	if o.Trace != nil || o.Why != nil || o.Flight != nil || o.History != nil {
		at.ctx = db.beginObserved(p, coord, home, t)
	}
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

// WhyID returns the attempt's causality txn id (0 when recording is
// off), for engines that need to stamp holder identity onto shared
// state (CREST local objects and flush plans).
func (at *AttemptTimer) WhyID() uint64 { return at.ctx.whyOf().WhyID() }

// Span returns the attempt's span (nil when no view records).
func (at *AttemptTimer) Span() *trace.Span { return at.ctx.spanOf() }

// Start returns the virtual time the attempt began.
func (at *AttemptTimer) Start() sim.Time { return at.start }

// Phase transitions to ph, charging the elapsed time to the phase
// being left.
func (at *AttemptTimer) Phase(ph trace.Phase) {
	now := at.p.Now()
	at.dur[at.cur] += now.Sub(at.mark)
	at.mark = now
	at.cur = ph
	if c := at.ctx; c != nil {
		c.span.Phase = ph
		at.db.Obs.Trace.EnterPhase(now, &c.span)
	}
}

// Fail marks the attempt aborted: the failing phase's duration is
// frozen here and subsequent time (lock release, write-back) accrues
// to the release phase, exactly as the pre-existing timers captured
// phase durations before cleanup.
func (at *AttemptTimer) Fail(reason AbortReason, falseConflict bool) {
	now := at.p.Now()
	at.dur[at.cur] += now.Sub(at.mark)
	at.mark = now
	at.cur = trace.PhaseRelease
	at.failed = true
	at.reason = reason
	at.falseC = falseConflict
	o := &at.db.Obs
	if c := at.ctx; c != nil {
		o.Trace.Abort(now, &c.span, reason.String(), falseConflict)
		c.span.Phase = trace.PhaseRelease
		o.Trace.EnterPhase(now, &c.span)
		o.Why.Abort(now, c.why, reason.String())
		o.Flight.Fail(c.flight, reason.String(), reason == AbortWait)
	}
	o.met.fail(reason, falseConflict, at.cross)
}

// Done closes the attempt and returns its outcome.
func (at *AttemptTimer) Done() Attempt {
	now := at.p.Now()
	at.dur[at.cur] += now.Sub(at.mark)
	o := &at.db.Obs
	if c := at.ctx; c != nil {
		o.Flight.Done(now, c.flight, &at.dur, !at.failed)
		if !at.failed {
			o.Trace.Commit(now, &c.span)
			o.Why.Commit(now, c.why)
			// The transaction is over: the process's next attempt begins a
			// new one, and the finalized flight record is not ours to touch.
			c.txn, c.flight = nil, nil
		}
	}
	o.met.done(!at.failed, now.Sub(at.start), at.shard)
	return Attempt{
		Committed:     !at.failed,
		Reason:        at.reason,
		FalseConflict: at.falseC,
		CrossShard:    at.cross,
		Exec:          at.dur[trace.PhaseExec] + at.dur[trace.PhaseLock],
		Validate:      at.dur[trace.PhaseValidate],
		Commit:        at.dur[trace.PhaseLog] + at.dur[trace.PhaseApply],
	}
}
