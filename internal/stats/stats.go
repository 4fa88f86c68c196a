// Package stats aggregates the metrics the paper's evaluation reports:
// throughput (KOPS), average/median/tail latencies, per-phase latency
// breakdowns, abort rates and false-abort rates.
package stats

import (
	"fmt"
	"slices"
	"sort"

	"crest/internal/engine"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// Latencies collects latency samples (in virtual microseconds) and
// answers percentile queries.
type Latencies struct {
	samples []float64
	sorted  bool
	// sum accumulates in arrival order, so the mean does not depend on
	// whether a percentile query has sorted samples yet.
	sum float64
}

// Add records one sample.
func (l *Latencies) Add(d sim.Duration) { l.add(d.Micros()) }

func (l *Latencies) add(us float64) {
	l.samples = append(l.samples, us)
	l.sum += us
	l.sorted = false
}

// Count reports the number of samples.
func (l *Latencies) Count() int { return len(l.samples) }

// Avg returns the mean in microseconds (0 when empty).
func (l *Latencies) Avg() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	return l.sum / float64(len(l.samples))
}

// Percentile returns the p-th percentile in microseconds, using
// nearest-rank on the sorted samples. The contract is 0 < p ≤ 100;
// out-of-range p is clamped into it, so p ≤ 0 returns the minimum
// sample and p > 100 the maximum (NaN, having no order, also clamps to
// the minimum) rather than reading out of range or inventing values.
func (l *Latencies) Percentile(p float64) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if !l.sorted {
		sort.Float64s(l.samples)
		l.sorted = true
	}
	rank := int(float64(p/100*float64(len(l.samples)))+0.5) - 1 // rounded: no fused multiply-add
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.samples) {
		rank = len(l.samples) - 1
	}
	return l.samples[rank]
}

// P50, P99 and P999 are the percentiles the paper plots.
func (l *Latencies) P50() float64 { return l.Percentile(50) }

// P99 returns the 99th percentile.
func (l *Latencies) P99() float64 { return l.Percentile(99) }

// P999 returns the 99.9th percentile.
func (l *Latencies) P999() float64 { return l.Percentile(99.9) }

// Merge folds other's samples into l one by one: adding other's sum in
// one step would round differently from a single accumulator that saw
// every sample.
func (l *Latencies) Merge(other *Latencies) {
	l.samples = slices.Grow(l.samples, len(other.samples))
	for _, us := range other.samples {
		l.add(us)
	}
}

// Breakdown accumulates per-phase time across committed transactions
// (Fig 4 / Fig 14). Aborted attempts' time folds into the phase it was
// spent in, so re-execution shows up as execution latency, matching
// the paper's measurement.
type Breakdown struct {
	Exec     sim.Duration
	Validate sim.Duration
	Commit   sim.Duration
	N        int
}

// AddAttempt accumulates one attempt's phases.
func (b *Breakdown) AddAttempt(a engine.Attempt) {
	b.Exec += a.Exec
	b.Validate += a.Validate
	b.Commit += a.Commit
}

// AddTxn marks one committed transaction complete.
func (b *Breakdown) AddTxn() { b.N++ }

// AvgExec returns mean execution-phase microseconds per committed txn.
func (b *Breakdown) AvgExec() float64 { return avgPhase(b.Exec, b.N) }

// AvgValidate returns mean validation-phase microseconds.
func (b *Breakdown) AvgValidate() float64 { return avgPhase(b.Validate, b.N) }

// AvgCommit returns mean commit-phase microseconds.
func (b *Breakdown) AvgCommit() float64 { return avgPhase(b.Commit, b.N) }

func avgPhase(d sim.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return d.Micros() / float64(n)
}

// Merge folds other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	b.Exec += other.Exec
	b.Validate += other.Validate
	b.Commit += other.Commit
	b.N += other.N
}

// Run aggregates one benchmark run.
type Run struct {
	Committed   uint64
	Aborted     uint64
	FalseAborts uint64
	// CrossShard counts attempts whose writes spanned shard groups;
	// CrossShardAborts is the aborted subset. Both stay zero on
	// single-group topologies.
	CrossShard       uint64
	CrossShardAborts uint64
	ByReason         map[engine.AbortReason]uint64
	Lat              Latencies
	Phases           Breakdown
	Elapsed          sim.Duration
	Verbs            rdma.Stats
}

// NewRun returns an empty aggregate.
func NewRun() *Run {
	return &Run{ByReason: map[engine.AbortReason]uint64{}}
}

// RecordAttempt folds one attempt's outcome in.
func (r *Run) RecordAttempt(a engine.Attempt) {
	r.Phases.AddAttempt(a)
	if a.CrossShard {
		r.CrossShard++
		if !a.Committed {
			r.CrossShardAborts++
		}
	}
	if a.Committed {
		return
	}
	r.Aborted++
	r.ByReason[a.Reason]++
	if a.FalseConflict {
		r.FalseAborts++
	}
}

// RecordCommit folds one committed transaction's end-to-end latency.
func (r *Run) RecordCommit(latency sim.Duration) {
	r.Committed++
	r.Lat.Add(latency)
	r.Phases.AddTxn()
}

// ThroughputKOPS is committed transactions per millisecond of virtual
// time — the paper's unit (thousand operations per second).
func (r *Run) ThroughputKOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / 1000 / r.Elapsed.Seconds()
}

// AbortRate is aborted executions over all executions, the §2.3
// definition.
func (r *Run) AbortRate() float64 {
	total := r.Committed + r.Aborted
	if total == 0 {
		return 0
	}
	return float64(r.Aborted) / float64(total)
}

// FalseAbortRate is the fraction of aborts caused by false conflicts
// (Fig 3b).
func (r *Run) FalseAbortRate() float64 {
	if r.Aborted == 0 {
		return 0
	}
	return float64(r.FalseAborts) / float64(r.Aborted)
}

// Merge folds another run's counters in (e.g. per-coordinator
// sub-aggregates).
func (r *Run) Merge(other *Run) {
	r.Committed += other.Committed
	r.Aborted += other.Aborted
	r.FalseAborts += other.FalseAborts
	r.CrossShard += other.CrossShard
	r.CrossShardAborts += other.CrossShardAborts
	for k, v := range other.ByReason {
		r.ByReason[k] += v
	}
	r.Lat.Merge(&other.Lat)
	r.Phases.Merge(&other.Phases)
}

// String summarizes the run.
func (r *Run) String() string {
	return fmt.Sprintf("%.1f KOPS, %d committed, abort %.1f%% (false %.1f%%), avg %.1fµs p50 %.1fµs p99 %.1fµs p999 %.1fµs",
		r.ThroughputKOPS(), r.Committed, 100*r.AbortRate(), 100*r.FalseAbortRate(),
		r.Lat.Avg(), r.Lat.P50(), r.Lat.P99(), r.Lat.P999())
}
