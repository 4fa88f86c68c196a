package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"crest/internal/bench"
	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
	"crest/internal/workload"
)

// The four recorders, by the layer name their metrics carry.
var observerNames = []string{"trace", "metrics", "causality", "flight"}

// repSpec selects what one child process simulates. The zero value of
// every field but Workload and Seed means "the workload's own".
type repSpec struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	VirtualMS float64 `json:"virtual_ms,omitempty"`
	WarmupMS  float64 `json:"warmup_ms,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	System    string  `json:"system,omitempty"`
	// Observers lists the recorders to attach; nil keeps the workload's
	// own set (all four when Observed, none otherwise).
	Observers []string `json:"observers"`
	// Check records the committed history and replays it through the
	// serializability oracle.
	Check bool `json:"check,omitempty"`
	// CPUProfile, when set, receives a CPU profile of the event loop.
	CPUProfile string `json:"cpu_profile,omitempty"`
}

// observerCost is what one recorder's snapshot and export cost after
// the event loop ended.
type observerCost struct {
	SnapshotMS float64 `json:"snapshot_ms"`
	ExportMS   float64 `json:"export_ms"`
	ExportMB   float64 `json:"export_mb"`
}

// runtimeSummary condenses sim.RuntimeStats for one partitioned rep.
type runtimeSummary struct {
	Workers        int     `json:"workers"`
	Windows        uint64  `json:"windows"`
	BarrierWaitPct float64 `json:"barrier_wait_pct"`
	OccupancyPct   float64 `json:"occupancy_pct"`
	// Imbalance is the busiest partition's events over the mean.
	Imbalance float64 `json:"imbalance"`
}

// flightShares is the flight recorder's additive latency budget summed
// over committed transactions, as shares of their total latency.
type flightShares struct {
	WirePct         float64 `json:"wire_pct"`
	WaitPct         float64 `json:"wait_pct"`
	QueueBackoffPct float64 `json:"queue_backoff_pct"`
	ComputePct      float64 `json:"compute_pct"`
}

// repResult is one child's measurements. Everything but the host-clock
// fields (LoopS, SetupS, Observers' times, Runtime's percentages) and
// the allocation counters is a pure function of the spec.
type repResult struct {
	Committed   uint64 `json:"committed"`
	Aborted     uint64 `json:"aborted"`
	FalseAborts uint64 `json:"false_aborts"`
	CrossShard  uint64 `json:"cross_shard"`
	Events      uint64 `json:"events"`

	// LoopS is the event loop's host seconds plus, for attached
	// recorders, their snapshot and export; SetupS is the rest of
	// bench.Run (pool, tables, load, QP warm).
	LoopS  float64 `json:"loop_s"`
	SetupS float64 `json:"setup_s"`

	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`

	KOPS   float64 `json:"kops"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`

	ExecUs     float64 `json:"exec_us"`
	ValidateUs float64 `json:"validate_us"`
	CommitUs   float64 `json:"commit_us"`

	Verbs      rdma.Stats `json:"verbs"`
	CrossVerbs uint64     `json:"cross_verbs"`

	Fingerprint string `json:"fingerprint"`

	HistoryTxns int    `json:"history_txns,omitempty"`
	HistoryErr  string `json:"history_err,omitempty"`

	Runtime   *runtimeSummary         `json:"runtime,omitempty"`
	Observers map[string]observerCost `json:"observers,omitempty"`
	Flight    *flightShares           `json:"flight,omitempty"`

	// PeakRSSMB is this process's VmHWM. (The ru_maxrss the parent could
	// read off the exit status is no use: Linux carries the spawning
	// process's own high-water mark across exec into it.)
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// CPUS is filled in by the parent from the child's exit status
	// (getrusage: user + system).
	CPUS float64 `json:"cpu_s,omitempty"`
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

// eventLoopS is LoopS without the recorders' snapshot and export.
func (r *repResult) eventLoopS() float64 {
	s := r.LoopS
	for _, c := range r.Observers {
		s -= (c.SnapshotMS + c.ExportMS) / 1e3
	}
	return s
}

// loopRate is events per host second of the event loop alone, which
// reps of different virtual durations can be compared by (commits are
// counted after the warmup only, events throughout).
func (r *repResult) loopRate() float64 { return float64(r.Events) / r.eventLoopS() }

// loopStartGen runs start once, on the first transaction any
// coordinator generates: bench.Run has no hook between set-up and the
// event loop, and the first Next is the first thing the loop does.
type loopStartGen struct {
	workload.Generator
	once  sync.Once
	start func()
}

func (g *loopStartGen) Next(rng *rand.Rand) *engine.Txn {
	g.once.Do(g.start)
	return g.Generator.Next(rng)
}

// PartitionSafe forwards the wrapped generator's capability so a
// sharded run stays on the partitioned scheduler.
func (g *loopStartGen) PartitionSafe() bool { return workload.IsPartitionSafe(g.Generator) }

// buildConfig turns a spec into the bench.Config it simulates plus the
// recorders attached to it.
func buildConfig(spec repSpec) (bench.Config, *recorders, error) {
	def := findWorkload(spec.Workload)
	if def == nil {
		return bench.Config{}, nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	cfg := def.config()
	cfg.MemNodes = 2
	cfg.Replicas = 1
	cfg.Seed = spec.Seed
	cfg.Warmup = warmup
	if spec.WarmupMS > 0 {
		cfg.Warmup = sim.Duration(spec.WarmupMS * float64(sim.Millisecond))
	}
	virtualMS := def.VirtualMS
	if spec.VirtualMS > 0 {
		virtualMS = spec.VirtualMS
	}
	cfg.Duration = sim.Duration(virtualMS * float64(sim.Millisecond))
	if cfg.Duration <= cfg.Warmup {
		return bench.Config{}, nil, fmt.Errorf("virtual duration %v ms does not exceed the %v warmup", virtualMS, cfg.Warmup)
	}
	if spec.Workers > 0 {
		cfg.Workers = spec.Workers
	}
	if spec.System != "" {
		cfg.System = bench.SystemKind(spec.System)
	}
	cfg.CheckHistory = spec.Check
	names := spec.Observers
	if names == nil && def.Observed {
		names = observerNames
	}
	rec := &recorders{}
	for _, n := range names {
		switch n {
		case "trace":
			rec.trace = trace.NewRecorder(0)
			cfg.Trace = rec.trace
		case "metrics":
			rec.metrics = metrics.NewRegistry(metrics.Options{})
			cfg.Metrics = rec.metrics
		case "causality":
			rec.why = causality.NewRecorder(causality.Options{})
			cfg.Why = rec.why
		case "flight":
			rec.flight = flight.NewRecorder(flight.Options{})
			cfg.Flight = rec.flight
		default:
			return bench.Config{}, nil, fmt.Errorf("unknown observer %q", n)
		}
	}
	return cfg, rec, nil
}

// recorders holds the observers attached to one rep, at default
// capacity.
type recorders struct {
	trace   *trace.Recorder
	metrics *metrics.Registry
	why     *causality.Recorder
	flight  *flight.Recorder
}

// countingDiscard is io.Discard that remembers how much it swallowed.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// timeExport snapshots one recorder and encodes the snapshot into the
// void, timing both halves.
func timeExport[S any](snapshot func() S, export func(io.Writer, S) error) (observerCost, S, error) {
	t0 := time.Now()
	snap := snapshot()
	t1 := time.Now()
	var sink countingDiscard
	err := export(&sink, snap)
	return observerCost{
		SnapshotMS: float64(t1.Sub(t0)) / 1e6,
		ExportMS:   float64(time.Since(t1)) / 1e6,
		ExportMB:   float64(sink.n) / (1 << 20),
	}, snap, err
}

// drain snapshots and exports every attached recorder, as a user who
// asked for the artifacts would, and returns the per-recorder cost and
// the flight budget shares.
func (r *recorders) drain() (map[string]observerCost, *flightShares, error) {
	costs := map[string]observerCost{}
	var shares *flightShares
	if r.trace != nil {
		c, _, err := timeExport(r.trace.Snapshot, trace.WriteChromeTrace)
		if err != nil {
			return nil, nil, fmt.Errorf("trace export: %w", err)
		}
		costs["trace"] = c
	}
	if r.metrics != nil {
		c, _, err := timeExport(r.metrics.Snapshot, metrics.WriteJSON)
		if err != nil {
			return nil, nil, fmt.Errorf("metrics export: %w", err)
		}
		costs["metrics"] = c
	}
	if r.why != nil {
		c, _, err := timeExport(r.why.Snapshot, causality.WriteJSON)
		if err != nil {
			return nil, nil, fmt.Errorf("causality export: %w", err)
		}
		costs["causality"] = c
	}
	if r.flight != nil {
		c, snap, err := timeExport(r.flight.Snapshot, flight.WriteJSON)
		if err != nil {
			return nil, nil, fmt.Errorf("flight export: %w", err)
		}
		costs["flight"] = c
		shares = budgetShares(snap)
	}
	if len(costs) == 0 {
		return nil, nil, nil
	}
	return costs, shares, nil
}

// budgetShares folds the committed transactions' additive budgets into
// the four shares the per-layer metrics report.
func budgetShares(s *flight.Snapshot) *flightShares {
	var sum flight.Budget
	for i := range s.Txns {
		if !s.Txns[i].Committed {
			continue
		}
		for c, d := range s.Txns[i].Budget {
			sum[c] += d
		}
	}
	total := float64(sum.Total())
	if total == 0 {
		return &flightShares{}
	}
	span := func(lo, hi flight.Component) float64 {
		var d sim.Duration
		for c := lo; c <= hi; c++ {
			d += sum[c]
		}
		return 100 * float64(d) / total
	}
	return &flightShares{
		WirePct:         span(flight.CompWireRead, flight.CompWireMixed),
		WaitPct:         span(flight.CompWait, flight.CompWait),
		QueueBackoffPct: span(flight.CompQueue, flight.CompBackoff),
		ComputePct:      span(flight.CompExec, flight.CompRelease),
	}
}

// runRep executes one spec in this process and measures it.
func runRep(spec repSpec) (*repResult, error) {
	cfg, rec, err := buildConfig(spec)
	if err != nil {
		return nil, err
	}
	var profErr error
	if spec.CPUProfile != "" {
		f, err := os.Create(spec.CPUProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		inner := cfg.Workload
		cfg.Workload = func() workload.Generator {
			return &loopStartGen{Generator: inner(), start: func() { profErr = pprof.StartCPUProfile(f) }}
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := bench.Run(cfg)
	runS := time.Since(t0).Seconds()
	pprof.StopCPUProfile() // a no-op unless the loop started one
	if err != nil {
		return nil, fmt.Errorf("bench.Run: %w", err)
	}
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	costs, shares, err := rec.drain()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	loopS := res.WallMS / 1e3
	out := &repResult{
		Committed:   res.Committed,
		Aborted:     res.Aborted,
		FalseAborts: res.FalseAborts,
		CrossShard:  res.CrossShard,
		Events:      res.Events,
		LoopS:       loopS,
		SetupS:      runS - loopS,
		Mallocs:     m1.Mallocs - m0.Mallocs,
		AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:    m1.NumGC - m0.NumGC,
		KOPS:        res.ThroughputKOPS(),
		P50Us:       res.Lat.P50(),
		P99Us:       res.Lat.P99(),
		P999Us:      res.Lat.P999(),
		ExecUs:      res.Phases.AvgExec(),
		ValidateUs:  res.Phases.AvgValidate(),
		CommitUs:    res.Phases.AvgCommit(),
		Verbs:       res.Verbs,
		Observers:   costs,
		Flight:      shares,
	}
	for _, c := range costs {
		out.LoopS += (c.SnapshotMS + c.ExportMS) / 1e3
	}
	if spec.Check {
		out.HistoryTxns = len(res.History.Txns)
		if res.HistoryErr != nil {
			out.HistoryErr = res.HistoryErr.Error()
		}
	}
	if ri := res.Runtime; ri != nil {
		out.Runtime = summarizeRuntime(ri, res.WallMS)
		for _, c := range ri.Cross {
			out.CrossVerbs += c.Total()
		}
	}
	out.Fingerprint = fingerprint(out)
	if out.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	return out, nil
}

func summarizeRuntime(ri *bench.RuntimeInfo, wallMS float64) *runtimeSummary {
	s := &runtimeSummary{Workers: ri.Workers, Windows: ri.Sim.Windows}
	var busyNS int64
	var events, maxEvents uint64
	for _, ps := range ri.Sim.PartStats {
		busyNS += ps.BusyNS
		events += ps.Events
		if ps.Events > maxEvents {
			maxEvents = ps.Events
		}
	}
	if wallMS > 0 {
		s.BarrierWaitPct = 100 * float64(ri.Sim.BarrierWaitNS) / (wallMS * 1e6)
	}
	if ri.Sim.WindowWallNS > 0 && ri.Workers > 0 {
		s.OccupancyPct = 100 * float64(busyNS) / (float64(ri.Workers) * float64(ri.Sim.WindowWallNS))
	}
	if events > 0 {
		s.Imbalance = float64(maxEvents) * float64(len(ri.Sim.PartStats)) / float64(events)
	}
	return s
}

// fingerprint hashes every simulated-clock output of a rep, so "the
// simulated result is unchanged" is one string comparison.
func fingerprint(r *repResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %+v %x %x %x %x",
		r.Committed, r.Aborted, r.Events, r.Verbs,
		r.KOPS, r.P50Us, r.P99Us, r.P999Us)
	return fmt.Sprintf("%016x", h.Sum64())
}
