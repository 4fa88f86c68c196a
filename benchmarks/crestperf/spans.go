package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed interval of the driver's own work. Parent indexes
// the span that caused it, -1 for a root.
type span struct {
	Name   string
	Start  time.Duration // since the log began
	Dur    time.Duration
	Parent int
}

// spanLog records the benchmark driver's spans in memory — workload >
// rep > {build, setup, loop, snapshot.<obs>, export.<obs>} and
// layer.<name> around each micro-driver — and writes them out once, at
// exit. The driver is single-threaded, so nesting is a stack.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) parent() int {
	if len(l.open) == 0 {
		return -1
	}
	return l.open[len(l.open)-1]
}

// begin opens a span under the innermost open one; the returned
// function closes it.
func (l *spanLog) begin(name string) (end func()) {
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t0), Parent: l.parent()})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].Dur = time.Since(l.t0) - l.spans[id].Start
		l.open = l.open[:len(l.open)-1]
	}
}

// add records an already-measured interval (a phase a child process
// timed itself) under the innermost open span, start relative to that
// span's start.
func (l *spanLog) add(name string, start, dur time.Duration) {
	p := l.parent()
	if p >= 0 {
		start += l.spans[p].Start
	}
	l.spans = append(l.spans, span{Name: name, Start: start, Dur: dur, Parent: p})
}

// writeChrome emits the spans as Chrome-trace JSON ("X" complete
// events on one track; chrome://tracing and Perfetto nest them by
// containment). args.parent names the causing span, args.self_ms the
// span's duration minus what its children cover.
func (l *spanLog) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		args := map[string]any{"id": i, "self_ms": float64(self[i]) / 1e6}
		if s.Parent >= 0 {
			args["parent"] = l.spans[s.Parent].Name
			args["parent_id"] = s.Parent
		}
		events[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: 1, Args: args}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
