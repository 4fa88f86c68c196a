package flight

import (
	"fmt"
	"io"
	"sort"

	"crest/internal/sim"
	"crest/internal/trace"
)

// us renders a virtual duration in microseconds.
func us(d sim.Duration) string { return fmt.Sprintf("%.1fµs", d.Micros()) }

// txnRef renders "T42 [label]".
func txnRef(id uint64, label string) string {
	if label == "" {
		return fmt.Sprintf("T%d", id)
	}
	return fmt.Sprintf("T%d [%s]", id, label)
}

// quantile returns the nearest-rank q-quantile of the sorted slice.
func quantile(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(q*float64(len(sorted)))+0.5) - 1 // rounded: no fused multiply-add
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// cohortMean returns the mean budget over every committed transaction
// whose total latency is at least floor, and the cohort size.
func cohortMean(txns []*TxnBudget, floor sim.Duration) (Budget, int) {
	var sum Budget
	n := 0
	for _, t := range txns {
		if t.Total() < floor {
			continue
		}
		for c := range sum {
			sum[c] += t.Budget[c]
		}
		n++
	}
	if n > 0 {
		for c := range sum {
			sum[c] /= sim.Duration(n)
		}
	}
	return sum, n
}

// WriteTail renders the aggregate latency budget report: the p50/p99/
// p999 cohort decomposition table, the tail-vs-median delta
// attribution, and the topN captured exemplars with their critical
// paths. Cohorts are committed transactions at or above each latency
// quantile, so the p999 column reads "where the slowest 0.1% spend
// their time" and the delta column shows which component grows fastest
// from the median to the tail. A topN below 1 is an error, and
// nothing is written.
func WriteTail(w io.Writer, s *Snapshot, topN int) error {
	if topN < 1 {
		return fmt.Errorf("flight: tail report of %d exemplars, want at least 1", topN)
	}
	var committed []*TxnBudget
	other := 0
	for i := range s.Txns {
		if s.Txns[i].Committed {
			committed = append(committed, &s.Txns[i])
		} else {
			other++
		}
	}
	fmt.Fprintf(w, "flight budget: %d committed txns (%d aborted/open), %d evicted from the ring\n",
		len(committed), other, s.Dropped)
	if len(committed) == 0 {
		fmt.Fprintf(w, "no committed transactions captured\n")
		return nil
	}
	lats := make([]sim.Duration, len(committed))
	for i, t := range committed {
		lats[i] = t.Total()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99, p999 := quantile(lats, 0.50), quantile(lats, 0.99), quantile(lats, 0.999)
	fmt.Fprintf(w, "latency: p50 %s  p99 %s  p999 %s\n\n", us(p50), us(p99), us(p999))

	m50, n50 := cohortMean(committed, p50)
	m99, n99 := cohortMean(committed, p99)
	m999, n999 := cohortMean(committed, p999)
	fmt.Fprintf(w, "%-10s  %12s  %12s  %12s  %12s\n", "component",
		fmt.Sprintf("p50+ (%d)", n50), fmt.Sprintf("p99+ (%d)", n99),
		fmt.Sprintf("p999+ (%d)", n999), "tail-median")
	var delta Budget
	for c := Component(0); c < NumComponents; c++ {
		delta[c] = m999[c] - m50[c]
		if m50[c] == 0 && m99[c] == 0 && m999[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s  %12s  %12s  %12s  %+12.1f\n",
			c, us(m50[c]), us(m99[c]), us(m999[c]), delta[c].Micros())
	}
	fmt.Fprintf(w, "%-10s  %12s  %12s  %12s  %+12.1f\n", "total",
		us(m50.Total()), us(m99.Total()), us(m999.Total()),
		(m999.Total() - m50.Total()).Micros())
	growth := m999.Total() - m50.Total()
	fastest := delta.Dominant()
	if growth > 0 {
		fmt.Fprintf(w, "tail vs median: %s grows fastest (+%s of +%s, %.1f%%)\n",
			fastest, us(delta[fastest]), us(growth),
			100*float64(delta[fastest])/float64(growth))
	}

	ex := make([]*Exemplar, len(s.Exemplars))
	for i := range s.Exemplars {
		ex[i] = &s.Exemplars[i]
	}
	sort.Slice(ex, func(i, j int) bool {
		a, b := ex[i], ex[j]
		if at, bt := a.Total(), b.Total(); at != bt {
			return at > bt
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.ID < b.ID
	})
	if len(ex) > topN {
		ex = ex[:topN]
	}
	if len(ex) > 0 {
		fmt.Fprintf(w, "\ntop exemplars:\n")
	}
	for _, e := range ex {
		dom := e.Budget.Dominant()
		fmt.Fprintf(w, "  %s shard %d: %s over %d attempt(s), dominant %s %s (%.0f%%)\n",
			txnRef(e.ID, e.Label), e.Shard, us(e.Total()), e.Attempts,
			dom, us(e.Budget[dom]), 100*float64(e.Budget[dom])/float64(e.Total()))
		fmt.Fprintf(w, "    └─ %s\n", critPathLine(e))
	}
	return nil
}

// dominantAttempt picks the exemplar's heaviest attempt by wall span
// (gap before it included); ties break toward the earlier attempt.
func dominantAttempt(e *Exemplar) int {
	best, bestD := 0, sim.Duration(-1)
	for i := range e.Detail {
		a := &e.Detail[i]
		d := a.End.Sub(a.Start) + a.Gap
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// dominantPhase picks an attempt's heaviest phase.
func dominantPhase(a *AttemptInfo) trace.Phase {
	best := trace.Phase(0)
	for ph := trace.Phase(1); ph < trace.NumPhases; ph++ {
		if a.Phases[ph] > a.Phases[best] {
			best = ph
		}
	}
	return best
}

// critPathLine renders one exemplar's critical path: the dominant
// attempt, its dominant phase, and that phase's wire/wait/compute
// split.
func critPathLine(e *Exemplar) string {
	if len(e.Detail) == 0 {
		return "no attempt detail captured"
	}
	i := dominantAttempt(e)
	a := &e.Detail[i]
	span := a.End.Sub(a.Start)
	out := fmt.Sprintf("critical path: attempt %d/%d (%s", i+1, e.Attempts, us(span))
	if a.Gap > 0 {
		kind := "backoff"
		if a.GapQueue {
			kind = "queue"
		}
		out += fmt.Sprintf(" after %s %s", us(a.Gap), kind)
	}
	ph := dominantPhase(a)
	comp := a.Phases[ph] - a.WirePhase[ph] - a.WaitPhase[ph] - a.BackoffPhase[ph]
	out += fmt.Sprintf(") → %s phase %s", ph, us(a.Phases[ph]))
	out += fmt.Sprintf(" = wire %s + wait %s + backoff %s + compute %s",
		us(a.WirePhase[ph]), us(a.WaitPhase[ph]), us(a.BackoffPhase[ph]), us(comp))
	if a.WaitPhase[ph] > 0 && a.WaitHolder != 0 {
		out += fmt.Sprintf(" (heaviest wait %s on T%d)", us(a.WaitMax), a.WaitHolder)
	}
	return out
}

// WriteCritPath renders transaction id's full flight record: the
// budget decomposition, the per-attempt timeline, and the critical
// path. When the transaction's summary survives in the ring but its
// full record was not captured as an exemplar, the summary-level
// decomposition is printed with a note. It errors when the id is
// unknown.
func WriteCritPath(w io.Writer, s *Snapshot, id uint64) error {
	if e := s.Exemplar(id); e != nil {
		writeHeader(w, &e.TxnBudget)
		writeBudget(w, &e.TxnBudget)
		for i := range e.Detail {
			a := &e.Detail[i]
			if a.Gap > 0 {
				kind := "backoff"
				if a.GapQueue {
					kind = "queue"
				}
				fmt.Fprintf(w, "  gap: %s %s\n", kind, us(a.Gap))
			}
			n := fmt.Sprintf("attempt %d", i+1)
			if a.Folded > 0 {
				n = fmt.Sprintf("attempts %d-%d", i+1, i+1+a.Folded)
			}
			fmt.Fprintf(w, "  %s: %s → %s\n", n, us(a.End.Sub(a.Start)), a.Outcome)
			for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
				if a.Phases[ph] == 0 {
					continue
				}
				comp := a.Phases[ph] - a.WirePhase[ph] - a.WaitPhase[ph] - a.BackoffPhase[ph]
				fmt.Fprintf(w, "    %-8s %10s   wire %s, wait %s, backoff %s, compute %s\n",
					ph, us(a.Phases[ph]), us(a.WirePhase[ph]), us(a.WaitPhase[ph]),
					us(a.BackoffPhase[ph]), us(comp))
			}
		}
		fmt.Fprintf(w, "%s\n", critPathLine(e))
		return nil
	}
	if t := s.Txn(id); t != nil {
		writeHeader(w, t)
		writeBudget(w, t)
		fmt.Fprintf(w, "  (no exemplar detail: txn was not a top-K outlier in its bucket)\n")
		return nil
	}
	return fmt.Errorf("flight: unknown txn %d (recorded %d txns, %d evicted)",
		id, len(s.Txns), s.Dropped)
}

// writeHeader prints a transaction's identity line.
func writeHeader(w io.Writer, t *TxnBudget) {
	state := "committed"
	if !t.Committed {
		state = "aborted/open"
		if t.Reason != "" {
			state = fmt.Sprintf("aborted/open (last: %s)", t.Reason)
		}
	}
	fmt.Fprintf(w, "%s coord %d, shard %d: %s in %s over %d attempt(s)\n",
		txnRef(t.ID, t.Label), t.Coord, t.Shard, state, us(t.Total()), t.Attempts)
}

// writeBudget prints the nonzero budget components, largest first.
func writeBudget(w io.Writer, t *TxnBudget) {
	type row struct {
		c Component
		d sim.Duration
	}
	var rows []row
	for c := Component(0); c < NumComponents; c++ {
		if t.Budget[c] != 0 {
			rows = append(rows, row{c, t.Budget[c]})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	total := t.Total()
	fmt.Fprintf(w, "budget:")
	for i, r := range rows {
		if i > 0 {
			fmt.Fprintf(w, ",")
		}
		pct := 0.0
		if total != 0 {
			pct = 100 * float64(r.d) / float64(total)
		}
		fmt.Fprintf(w, " %s %s (%.0f%%)", r.c, us(r.d), pct)
	}
	fmt.Fprintf(w, "\n")
	if t.WaitMax > 0 && t.WaitHolder != 0 {
		fmt.Fprintf(w, "heaviest wait: %s on T%d\n", us(t.WaitMax), t.WaitHolder)
	}
}
