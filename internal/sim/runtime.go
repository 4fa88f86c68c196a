package sim

// Runtime introspection of the window executor. The counters split into
// two classes with different determinism guarantees:
//
//   - schedule-derived: windows executed, window widths, per-partition
//     events dispatched, messages sent/injected across the seam, and
//     mailbox high-water marks are pure functions of the simulation
//     state — identical at any worker count, safe to export through the
//     deterministic metrics registry;
//   - wall-clock: per-partition busy time (merge and dispatch), barrier
//     wait and total window time are real time.Now measurements. They
//     vary run to run and must only surface in invocation-level outputs
//     (runtime-stats JSON, stderr summaries), never in byte-compared
//     artifacts.
//
// All counters mutate either between windows (on the main worker) or
// from the one worker that claimed a partition for a window; the
// window's last partition orders the latter before any cross-thread read.

// windowLogCap bounds the per-run window log: enough to render a
// timeline of the interesting prefix without letting a long run grow
// without bound. Overflow increments WindowLogDropped.
const windowLogCap = 4096

// worldRuntime is the World's introspection state.
type worldRuntime struct {
	windows    uint64
	widthSum   uint64 // virtual time units, summed over windows
	widthMin   Duration
	widthMax   Duration
	windowNS   int64    // wall time inside runWindow, all windows
	barrierNS  int64    // wall time the main worker waited for last partitions
	injected   []uint64 // per partition: messages merged into it
	mailboxHWM []int    // per partition: largest single merge
	busyNS     []int64  // per partition: wall time merging and dispatching
	log        []WindowRec
	logDropped uint64
}

// noteInject records one merge's message batch for target partition t.
func (rt *worldRuntime) noteInject(t, n int) {
	rt.injected[t] += uint64(n)
	if n > rt.mailboxHWM[t] {
		rt.mailboxHWM[t] = n
	}
}

// noteWindow records one executed window [start, bound].
func (rt *worldRuntime) noteWindow(start, bound Time, events, injected uint64) {
	width := Duration(bound-start) + 1
	rt.windows++
	rt.widthSum += uint64(width)
	if rt.widthMin == 0 || width < rt.widthMin {
		rt.widthMin = width
	}
	if width > rt.widthMax {
		rt.widthMax = width
	}
	if len(rt.log) < windowLogCap {
		rt.log = append(rt.log, WindowRec{Start: start, Bound: bound, Events: events, Injected: injected})
	} else {
		rt.logDropped++
	}
}

// WindowRec is one executed window in the log: its virtual-time span,
// the events dispatched inside it (across all partitions) and the
// cross-partition messages merged when it opened.
type WindowRec struct {
	Start    Time
	Bound    Time
	Events   uint64
	Injected uint64
}

// PartRuntime is one partition's slice of the executor counters.
type PartRuntime struct {
	Part       int
	Events     uint64 // events dispatched in this partition
	Injected   uint64 // cross-partition messages delivered to it
	Sent       uint64 // cross-partition messages it posted
	MailboxHWM int    // largest single incoming merge
	BusyNS     int64  // wall-clock: wall time spent merging and dispatching (nondeterministic)
}

// RuntimeStats is a snapshot of the window executor's introspection
// counters. Everything except the *NS fields (and PartRuntime.BusyNS)
// is schedule-derived and identical at any worker count.
type RuntimeStats struct {
	Parts     int
	Workers   int
	Lookahead Duration
	Windows   uint64
	WidthSum  uint64 // virtual time units summed over windows
	WidthMin  Duration
	WidthMax  Duration

	WindowWallNS  int64 // wall-clock: total time inside windows
	BarrierWaitNS int64 // wall-clock: main worker's waits for each window's last partition

	PartStats []PartRuntime

	WindowLog        []WindowRec // first windowLogCap windows
	WindowLogDropped uint64
}

// WidthAvg returns the mean window width in virtual time units (the
// lookahead-efficiency figure: how close windows come to the full
// lookahead).
func (s *RuntimeStats) WidthAvg() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.WidthSum) / float64(s.Windows)
}

// RuntimeStats snapshots the executor's introspection counters. Call it
// between runs (not from inside a running window).
func (w *World) RuntimeStats() *RuntimeStats {
	s := &RuntimeStats{
		Parts:            len(w.envs),
		Workers:          w.workers,
		Lookahead:        w.lookahead,
		Windows:          w.rt.windows,
		WidthSum:         w.rt.widthSum,
		WidthMin:         w.rt.widthMin,
		WidthMax:         w.rt.widthMax,
		WindowWallNS:     w.rt.windowNS,
		BarrierWaitNS:    w.rt.barrierNS,
		WindowLogDropped: w.rt.logDropped,
	}
	s.WindowLog = append(s.WindowLog, w.rt.log...)
	s.PartStats = make([]PartRuntime, len(w.envs))
	for i, e := range w.envs {
		var sent uint64
		for t := range e.outs {
			sent += e.outs[t].seq
		}
		s.PartStats[i] = PartRuntime{
			Part:       i,
			Events:     e.dispatched,
			Injected:   w.rt.injected[i],
			Sent:       sent,
			MailboxHWM: w.rt.mailboxHWM[i],
			BusyNS:     w.rt.busyNS[i],
		}
	}
	return s
}

// Windows returns the number of windows executed so far
// (schedule-derived, safe for metric probes).
func (w *World) Windows() uint64 { return w.rt.windows }

// WindowWidthAvg returns the mean window width so far in virtual time
// units (schedule-derived).
func (w *World) WindowWidthAvg() float64 {
	if w.rt.windows == 0 {
		return 0
	}
	return float64(w.rt.widthSum) / float64(w.rt.windows)
}

// PartInjected returns the cross-partition messages injected into
// partition i so far (schedule-derived).
func (w *World) PartInjected(i int) uint64 { return w.rt.injected[i] }

// PartMailboxHWM returns partition i's largest single incoming
// merge so far (schedule-derived).
func (w *World) PartMailboxHWM(i int) int { return w.rt.mailboxHWM[i] }
