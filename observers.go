package crest

import (
	"fmt"
	"time"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// ObserverOptions selects which of the four observers record a cluster
// or a benchmark run; Config and BenchmarkConfig both embed it. Every
// observer consumes no virtual time and no randomness, so an observed
// run commits exactly the schedule of a plain one. Snapshots come back
// from Cluster.TraceSnapshot / MetricsSnapshot / WhySnapshot /
// FlightSnapshot, or in the BenchmarkResult field of the same name.
type ObserverOptions struct {
	// Trace records a deterministic event trace of everything the run
	// does (transaction spans, phases, RDMA verbs, lock traffic).
	Trace bool
	// Metrics enables the windowed metrics plane (counters, gauges and
	// histograms across the simulator, fabric and engine).
	Metrics bool
	// MetricsWindow is the time-series sampling period in virtual time
	// (0 = the default 100µs; negative is an error; ignored unless
	// Metrics is set).
	MetricsWindow time.Duration
	// Why enables abort forensics: wait-for and conflict edges (who
	// blocked on whom, who invalidated whose read) that explain any
	// abort after the fact.
	Why bool
	// Flight enables the per-transaction flight recorder: every
	// transaction's virtual-time latency decomposed into an additive
	// budget (queueing, per-verb wire time, lock waiting, backoff,
	// per-phase compute), the slowest outliers keeping their full
	// per-attempt timeline.
	Flight bool
}

// validate rejects an option no recorder can take.
func (o ObserverOptions) validate() error {
	if o.MetricsWindow < 0 {
		return fmt.Errorf("crest: metrics window must not be negative, got %v", o.MetricsWindow)
	}
	return nil
}

// recorders builds the enabled recorders, each with its default ring;
// the rest stay nil (disabled).
func (o ObserverOptions) recorders() engine.Observers {
	var obs engine.Observers
	if o.Trace {
		obs.Trace = trace.NewRecorder(0)
	}
	if o.Metrics {
		window := metrics.DefaultWindow
		if o.MetricsWindow > 0 {
			window = sim.Duration(o.MetricsWindow)
		}
		obs.Metrics = metrics.NewRegistry(metrics.Options{Window: window})
	}
	if o.Why {
		obs.Why = causality.NewRecorder(causality.Options{})
	}
	if o.Flight {
		obs.Flight = flight.NewRecorder(flight.Options{})
	}
	return obs
}

// snapshots copies each enabled recorder's state; a disabled recorder
// yields nil.
func snapshots(obs engine.Observers) (t *TraceSnapshot, m *MetricsSnapshot, w *WhySnapshot, f *FlightSnapshot) {
	if obs.Trace != nil {
		t = obs.Trace.Snapshot()
	}
	if obs.Metrics != nil {
		m = obs.Metrics.Snapshot()
	}
	if obs.Why != nil {
		w = obs.Why.Snapshot()
	}
	if obs.Flight != nil {
		f = obs.Flight.Snapshot()
	}
	return t, m, w, f
}
