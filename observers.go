package crest

import (
	"time"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// observerOptions is the observer option set Config and BenchmarkConfig
// both expose, in their field order.
type observerOptions struct {
	Trace          bool
	TraceCapacity  int
	Metrics        bool
	MetricsWindow  time.Duration
	Why            bool
	WhyCapacity    int
	Flight         bool
	FlightCapacity int
}

// recorders builds the enabled recorders; the rest stay nil (disabled).
func (o observerOptions) recorders() engine.Observers {
	var obs engine.Observers
	if o.Trace {
		obs.Trace = trace.NewRecorder(o.TraceCapacity)
	}
	if o.Metrics {
		window := metrics.DefaultWindow
		if o.MetricsWindow > 0 {
			window = sim.Duration(o.MetricsWindow)
		}
		obs.Metrics = metrics.NewRegistry(metrics.Options{Window: window})
	}
	if o.Why {
		obs.Why = causality.NewRecorder(causality.Options{Capacity: o.WhyCapacity})
	}
	if o.Flight {
		obs.Flight = flight.NewRecorder(flight.Options{TxnCapacity: o.FlightCapacity})
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
