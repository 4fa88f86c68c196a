package crest

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"crest/internal/bench"
)

// RuntimeSchemaVersion identifies the JSON layout of RuntimeStats (the
// crestbench -runtime-stats artifact).
const RuntimeSchemaVersion = "crest-runtime/v1"

// RuntimeStats is the window executor's introspection for one
// partitioned run: how the conservative parallel scheduler (one
// partition per shard group, lock-stepped lookahead windows) actually
// behaved. It splits into two classes:
//
//   - schedule-derived fields (windows, widths, per-partition events,
//     injections, mailbox high-water marks, cross-partition verbs, the
//     window log) are pure functions of the simulation — identical at
//     any worker count;
//   - wall-clock fields (WallMS, BarrierWaitMS, WorkerOccupancy, the
//     *PerSec and *MS fields) measure the simulator on this machine and
//     vary run to run. They are tagged omitempty so a stripped document
//     is deterministic.
type RuntimeStats struct {
	Schema  string `json:"schema"`
	Parts   int    `json:"parts"`
	Workers int    `json:"workers"`
	// LookaheadNs is the conservative lookahead in virtual nanoseconds;
	// WindowWidth* report how much of it each window actually used
	// (width avg / lookahead is the lookahead efficiency).
	LookaheadNs      int64   `json:"lookahead_ns"`
	Windows          uint64  `json:"windows"`
	WindowWidthAvgNs float64 `json:"window_width_avg_ns"`
	WindowWidthMinNs int64   `json:"window_width_min_ns"`
	WindowWidthMaxNs int64   `json:"window_width_max_ns"`
	Events           uint64  `json:"events"`

	// Wall-clock (nondeterministic): total event-loop time, time the
	// main thread waited on window barriers, and mean worker occupancy
	// (summed partition busy time over workers × in-window time; 1.0
	// means every worker was busy whenever a window ran).
	WallMS          float64 `json:"wall_ms,omitempty"`
	BarrierWaitMS   float64 `json:"barrier_wait_ms,omitempty"`
	WorkerOccupancy float64 `json:"worker_occupancy,omitempty"`
	EventsPerSec    float64 `json:"events_per_sec,omitempty"`

	Partitions []PartitionRuntime `json:"partitions"`

	// WindowLog is the run's first windows (bounded; WindowLogDropped
	// counts the overflow), the input to the cresttrace windows
	// timeline.
	WindowLog        []WindowSlice `json:"window_log,omitempty"`
	WindowLogDropped uint64        `json:"window_log_dropped,omitempty"`
}

// PartitionRuntime is one partition's slice of the executor counters.
// Everything except BusyMS and EventsPerSec is schedule-derived.
type PartitionRuntime struct {
	Partition int    `json:"partition"`
	Events    uint64 `json:"events"`
	// Injected / Sent count cross-partition messages delivered to /
	// posted by this partition; MailboxHWM is the largest batch one
	// barrier injected.
	Injected   uint64 `json:"injected"`
	Sent       uint64 `json:"sent"`
	MailboxHWM int    `json:"mailbox_hwm"`
	// CrossVerbs counts the RDMA verbs this partition posted whose
	// target region lives in another partition.
	CrossVerbs uint64 `json:"cross_verbs"`

	BusyMS       float64 `json:"busy_ms,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// WindowSlice is one executed window of the timeline: its virtual-time
// span, the events dispatched inside it and the messages injected at
// the barrier that opened it.
type WindowSlice struct {
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Events   uint64 `json:"events"`
	Injected uint64 `json:"injected"`
}

// newRuntimeStats converts a bench run's introspection into the public
// schema-versioned form. Returns nil when the run was not partitioned.
func newRuntimeStats(ri *bench.RuntimeInfo, wallMS float64, events uint64) *RuntimeStats {
	if ri == nil || ri.Sim == nil {
		return nil
	}
	sim := ri.Sim
	s := &RuntimeStats{
		Schema:           RuntimeSchemaVersion,
		Parts:            sim.Parts,
		Workers:          ri.Workers,
		LookaheadNs:      int64(sim.Lookahead),
		Windows:          sim.Windows,
		WindowWidthAvgNs: sim.WidthAvg(),
		WindowWidthMinNs: int64(sim.WidthMin),
		WindowWidthMaxNs: int64(sim.WidthMax),
		Events:           events,
		WallMS:           wallMS,
		BarrierWaitMS:    float64(sim.BarrierWaitNS) / 1e6,
		EventsPerSec:     bench.EventsPerSec(events, wallMS),
		WindowLogDropped: sim.WindowLogDropped,
	}
	var busyNS int64
	for _, ps := range sim.PartStats {
		pr := PartitionRuntime{
			Partition:    ps.Part,
			Events:       ps.Events,
			Injected:     ps.Injected,
			Sent:         ps.Sent,
			MailboxHWM:   ps.MailboxHWM,
			BusyMS:       float64(ps.BusyNS) / 1e6,
			EventsPerSec: bench.EventsPerSec(ps.Events, wallMS),
		}
		if ps.Part < len(ri.Cross) {
			pr.CrossVerbs = ri.Cross[ps.Part].Total()
		}
		busyNS += ps.BusyNS
		s.Partitions = append(s.Partitions, pr)
	}
	if sim.WindowWallNS > 0 && ri.Workers > 0 {
		s.WorkerOccupancy = float64(busyNS) / (float64(ri.Workers) * float64(sim.WindowWallNS))
	}
	for _, rec := range sim.WindowLog {
		s.WindowLog = append(s.WindowLog, WindowSlice{
			StartNs:  int64(rec.Start),
			EndNs:    int64(rec.Bound),
			Events:   rec.Events,
			Injected: rec.Injected,
		})
	}
	return s
}

// WriteRuntimeStats emits the stats as indented JSON. The wall-clock
// fields are the only nondeterministic part; strip them (they are
// omitempty) when diffing artifacts.
func WriteRuntimeStats(w io.Writer, s *RuntimeStats) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadRuntimeStats parses a document written by WriteRuntimeStats and
// verifies its schema version.
func ReadRuntimeStats(r io.Reader) (*RuntimeStats, error) {
	var s RuntimeStats
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if s.Schema != RuntimeSchemaVersion {
		return nil, fmt.Errorf("crest: runtime stats schema %q, want %q", s.Schema, RuntimeSchemaVersion)
	}
	return &s, nil
}

// WriteWindowTimeline renders the window/barrier timeline of a
// partitioned run: one row per logged window with its virtual-time
// span, event count, injected cross-partition messages, and a bar
// scaled to the busiest window. The rendering uses only the
// schedule-derived fields, so it is byte-identical at any worker count.
func WriteWindowTimeline(w io.Writer, s *RuntimeStats) error {
	eff := 0.0
	if s.LookaheadNs > 0 {
		eff = s.WindowWidthAvgNs / float64(s.LookaheadNs)
	}
	if _, err := fmt.Fprintf(w,
		"windows %d  parts %d  lookahead %dns  width avg %.1fns min %dns max %dns  efficiency %.0f%%\n",
		s.Windows, s.Parts, s.LookaheadNs, s.WindowWidthAvgNs,
		s.WindowWidthMinNs, s.WindowWidthMaxNs, 100*eff); err != nil {
		return err
	}
	for _, p := range s.Partitions {
		if _, err := fmt.Fprintf(w,
			"partition %d: events %d  injected %d  sent %d  mailbox-hwm %d  cross-verbs %d\n",
			p.Partition, p.Events, p.Injected, p.Sent, p.MailboxHWM, p.CrossVerbs); err != nil {
			return err
		}
	}
	if len(s.WindowLog) == 0 {
		_, err := fmt.Fprintln(w, "no window log recorded")
		return err
	}
	var maxEvents uint64 = 1
	for _, rec := range s.WindowLog {
		if rec.Events > maxEvents {
			maxEvents = rec.Events
		}
	}
	const barWidth = 40
	if _, err := fmt.Fprintf(w, "%8s  %12s  %12s  %8s  %8s\n",
		"window", "start_ns", "end_ns", "events", "injected"); err != nil {
		return err
	}
	for i, rec := range s.WindowLog {
		n := int(rec.Events * barWidth / maxEvents)
		if _, err := fmt.Fprintf(w, "%8d  %12d  %12d  %8d  %8d  %s\n",
			i, rec.StartNs, rec.EndNs, rec.Events, rec.Injected,
			strings.Repeat("#", n)); err != nil {
			return err
		}
	}
	if s.WindowLogDropped > 0 {
		if _, err := fmt.Fprintf(w, "... %d later windows not logged\n", s.WindowLogDropped); err != nil {
			return err
		}
	}
	return nil
}

// ValidateWorkers checks a -workers flag value: the scheduler needs at
// least one worker (counts beyond the partition count are clamped, so
// any positive value is fine).
func ValidateWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", n)
	}
	return nil
}
