// Package bench is the experiment harness: it assembles a simulated
// cluster (memory pool + compute nodes + one of the five system
// configurations), loads a workload, drives coordinators for a span of
// virtual time, and aggregates the metrics the paper reports.
//
// Every table and figure of the paper's evaluation is a set of
// bench.Run calls with different knobs; see the experiment definitions
// in experiments.go and the per-experiment index in DESIGN.md.
package bench

import (
	"fmt"
	"slices"
	"time"

	"crest/internal/causality"
	"crest/internal/core"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/ford"
	"crest/internal/layout"
	"crest/internal/metrics"
	"crest/internal/motor"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/scenario"
	"crest/internal/sim"
	"crest/internal/stats"
	"crest/internal/trace"
	"crest/internal/workload"
)

// SystemKind selects which transaction system a run uses.
type SystemKind string

// The five system configurations the paper evaluates.
const (
	CREST     SystemKind = "crest"      // full CREST
	CRESTCell SystemKind = "crest-cell" // factor analysis: +cell only
	CRESTBase SystemKind = "crest-base" // factor analysis: Base
	FORD      SystemKind = "ford"
	Motor     SystemKind = "motor"
)

// Config describes one benchmark run.
type Config struct {
	System   SystemKind
	Workload func() workload.Generator // fresh generator per run
	// MemNodes is the number of memory nodes per shard group (the
	// whole pool when Shards == 1).
	MemNodes  int
	CompNodes int
	// Shards is the number of independent shard groups (default 1 —
	// the classic topology; 1 with hash placement is byte-identical to
	// the pre-sharding harness).
	Shards int
	// Placement names the data-placement policy ("" = "hash"; see
	// internal/placement).
	Placement string
	// HotKeys seeds the "hotspot" placement policy. When the policy is
	// "hotspot" and HotKeys is empty, Deploy derives a seed by first
	// executing a short deterministic probe of the same workload under
	// modulo placement with a causality recorder and pinning its
	// hottest keys to shard group 0.
	HotKeys []placement.HotKey
	// Coordinators is the total coordinator count across all compute
	// nodes; the paper sweeps it from 24 to 240. A total that does not
	// divide CompNodes is spread by giving the first (total mod
	// CompNodes) nodes one extra coordinator, so the run uses exactly
	// the requested count.
	Coordinators int
	Replicas     int // f backups per record
	Seed         int64
	// Duration is the run's total virtual time, warmup included.
	// Coordinators run transactions back to back until it elapses,
	// then drain.
	Duration sim.Duration
	// Warmup excludes the ramp-up from the measurements: the measured
	// window is the Duration − Warmup that follows it.
	Warmup sim.Duration
	// Params overrides the fabric latency model (zero value = default).
	Params rdma.Params
	// CheckHistory turns on the serializability checker (slows the
	// run; used by tests, not benchmarks).
	CheckHistory bool
	// Trace, when non-nil, records the run's event stream (see
	// internal/trace). Tracing consumes no virtual time and no
	// randomness, so a traced run commits exactly the same schedule as
	// an untraced one.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the run's instrument traffic (see
	// internal/metrics). Like tracing, metrics consume no virtual time
	// and no randomness: a metered run commits exactly the same
	// schedule as an unmetered one.
	Metrics *metrics.Registry
	// Why, when non-nil, records wait-for and conflict edges for abort
	// forensics (see internal/causality). Like tracing and metrics,
	// recording consumes no virtual time and no randomness.
	Why *causality.Recorder
	// Flight, when non-nil, records per-transaction latency budgets,
	// critical paths and tail exemplars (see internal/flight). Like the
	// other probes, recording consumes no virtual time and no
	// randomness. The recorder's warmup cutoff is set from Warmup so
	// capture matches the measurement window.
	Flight *flight.Recorder
	// Workers is how many OS threads execute shard-group partitions
	// concurrently when the run is partitioned (see Partitioned). It is
	// an invocation-level performance knob: every worker count produces
	// byte-identical results, so it must never enter a run key or a
	// canonical record. 0 means 1.
	Workers int
}

// observers bundles the run's recorders for engine.DB.Attach, with a
// fresh history when CheckHistory is set.
func (c Config) observers() engine.Observers {
	o := engine.Observers{Trace: c.Trace, Metrics: c.Metrics, Why: c.Why, Flight: c.Flight}
	if c.CheckHistory {
		o.History = engine.NewHistory()
	}
	return o
}

// Partitioned reports whether the run executes on the partitioned
// parallel scheduler (sim.World): one partition per shard group. It
// requires a sharded topology and a partition-safe workload generator.
// The decision is a property of the topology alone — never of Workers
// or of attached observability probes — so a partitioned run is
// byte-identical at every worker count, and attaching trace, metrics
// or abort forensics never changes the schedule: each partition records
// into its own shard of the recorder/registry (trace.Recorder.Shard and
// friends), merged deterministically at snapshot time, so observed runs
// execute at full worker count.
func (c Config) Partitioned(gen workload.Generator) bool {
	return c.Shards > 1 && workload.IsPartitionSafe(gen)
}

// WithDefaults fills unset fields with the evaluation defaults: two
// memory nodes, three compute nodes of 80 coordinators each (the
// paper's testbed shape), 20 ms of virtual time of which the first 2 ms
// are warmup. Replicas has no default: 0 is a value (unreplicated).
func (c Config) WithDefaults() Config {
	if c.System == "" {
		c.System = CREST
	}
	if c.MemNodes == 0 {
		c.MemNodes = 2
	}
	if c.CompNodes == 0 {
		c.CompNodes = 3
	}
	if c.Coordinators == 0 {
		c.Coordinators = 80 * c.CompNodes
	}
	if c.Duration == 0 {
		c.Duration = 20 * sim.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Params.RTT == 0 {
		c.Params = rdma.DefaultParams()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// coordsOnNode is cn's share of the total: an even split, with the
// remainder spread one-per-node from the front.
func (c Config) coordsOnNode(cn int) int {
	n := c.Coordinators / c.CompNodes
	if cn < c.Coordinators%c.CompNodes {
		n++
	}
	return n
}

// PhaseStat aggregates the measured window of one scenario phase.
type PhaseStat struct {
	Phase    int    `json:"phase"` // 1-based, matching phase.<i> in the spec
	Attempts uint64 `json:"attempts"`
	Commits  uint64 `json:"commits"`
	Aborts   uint64 `json:"aborts"`
}

// add folds another accumulator of the same phase in.
func (p *PhaseStat) add(o PhaseStat) {
	p.Attempts += o.Attempts
	p.Commits += o.Commits
	p.Aborts += o.Aborts
}

// AbortRate is aborts per attempt within the phase.
func (p PhaseStat) AbortRate() float64 {
	if p.Attempts == 0 {
		return 0
	}
	return float64(p.Aborts) / float64(p.Attempts)
}

// Result is one run's aggregated outcome.
type Result struct {
	*stats.Run
	System       SystemKind
	Workload     string
	Coordinators int
	HistoryErr   error
	// History is the recorded cell-level history when CheckHistory
	// was set (diagnostics).
	History *engine.History
	// Events is the number of scheduler dispatches the run consumed —
	// a deterministic measure of simulation size (same spec, same
	// count).
	Events uint64
	// WallMS is the real time the event loop took, in milliseconds,
	// giving the memory pool back included.
	// Unlike every other field it is nondeterministic: it measures the
	// simulator, not the simulated system, and never feeds canonical
	// output.
	WallMS float64
	// ScenarioPhases breaks the measured window down by scenario phase
	// when the workload is scenario-driven (attempts are attributed to
	// the phase in which their transaction was first generated).
	ScenarioPhases []PhaseStat
	// Runtime is the window executor's introspection, populated only
	// for partitioned runs. Its wall-clock fields (busy time, barrier
	// waits) are nondeterministic; everything else is schedule-derived.
	Runtime *RuntimeInfo
}

// RuntimeInfo is one partitioned run's executor introspection: the
// simulator's window/mailbox counters plus the fabric's cross-partition
// verb traffic, per partition.
type RuntimeInfo struct {
	Sim *sim.RuntimeStats
	// Cross is, per partition, the verbs that partition posted whose
	// target region lives in another partition.
	Cross []rdma.Stats
	// Workers is the worker count the run executed with (invocation
	// level: it never affects any other field except wall-clock ones).
	Workers int
}

// System is the engine-facing surface the implementations share. The
// strict engines (ford, motor) return it as is; CREST's concrete
// compute-node and coordinator types go through the adapters below.
type System interface {
	Name() string
	CreateTable(layout.Schema, int)
	Load(layout.TableID, layout.Key, [][]byte)
	FinishLoad() error
	// NewComputeNode creates compute node id on the root database.
	// NewPartitionComputeNode binds it to db instead: a partition view
	// of the root (engine.DB.PartitionView), or the root itself, which
	// is the one-partition case and the same as NewComputeNode.
	NewComputeNode(id int) ComputeNode
	NewPartitionComputeNode(id int, db *engine.DB) ComputeNode
}

// ComputeNode creates coordinators.
type ComputeNode = engine.ComputeNode

type crestSys struct{ *core.System }

func (s crestSys) NewComputeNode(id int) ComputeNode { return crestCN{s.System.NewComputeNode(id)} }

func (s crestSys) NewPartitionComputeNode(id int, db *engine.DB) ComputeNode {
	return crestCN{s.System.NewPartitionComputeNode(id, db)}
}

type crestCN struct{ *core.ComputeNode }

func (c crestCN) NewCoordinator(id int) engine.Coordinator { return c.ComputeNode.NewCoordinator(id) }

// NewSystem builds the configured system over db.
func NewSystem(kind SystemKind, db *engine.DB) (System, error) {
	switch kind {
	case CREST:
		return crestSys{core.New(db, core.DefaultOptions())}, nil
	case CRESTCell:
		return crestSys{core.New(db, core.CellOptions())}, nil
	case CRESTBase:
		return crestSys{core.New(db, core.BaseOptions())}, nil
	case FORD:
		return ford.New(db), nil
	case Motor:
		return motor.New(db), nil
	}
	return nil, fmt.Errorf("bench: unknown system %q", kind)
}

// PoolBytes estimates the per-node region size a workload needs under
// the largest layout (Motor's multi-versioned records), plus index,
// log and slack space. Every pool is sized so, whichever engine runs:
// what an engine does not touch costs address space only — a region
// this size is mapped outside the Go heap and its untouched pages are
// never resident (DESIGN.md §12 "Who owns a region's bytes") — so
// sizing by engine would buy nothing. Where regions are made on the
// heap (non-unix) the same holds for RSS, but the collector's goal
// follows the full size.
func PoolBytes(defs []workload.TableDef, coordinators int) int {
	total := 0
	for _, def := range defs {
		s := def.Schema.Normalize()
		m := layout.NewMotorRecord(s).PaddedSize()
		if c := layout.NewRecord(s).Size(); c > m {
			m = c
		}
		total += def.Capacity * m
		total += def.Capacity * 48 // hash index entries with slack
	}
	total += coordinators * (80 << 10) // log segments
	total += 4 << 20                   // allocator slack
	return total
}

// quiesced, when set, is handed each run's deployment once the run has
// drained, before Run gives its pool back: the state a run leaves
// behind is read through it. Only tests set it.
var quiesced func(*Deployment)

// Run executes one benchmark configuration and returns its metrics.
func Run(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	gen := cfg.Workload()
	d, err := Deploy(cfg, gen.Tables(), cfg.Partitioned(gen))
	if err != nil {
		return Result{}, err
	}
	defer d.Close()
	d.load(gen)
	seats, err := d.Start()
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Run:          stats.NewRun(),
		System:       cfg.System,
		Workload:     gen.Name(),
		Coordinators: cfg.Coordinators,
	}
	retry := engine.DefaultRetryPolicy()
	stop := false
	verbs0 := d.fabric.Stats()

	// Scenario-driven runs modulate admission and key selection from
	// the virtual clock. Under a trivial timeline Gate is always zero
	// and NextAt is exactly Next, so this path adds no events and no
	// randomness to a plain run.
	timed, _ := gen.(workload.TimedGenerator)
	var scn *scenario.Spec
	if sg, ok := gen.(*scenario.Generator); ok {
		scn = sg.Spec()
		if len(scn.Timeline) > 0 {
			res.ScenarioPhases = make([]PhaseStat, len(scn.Timeline))
			for i := range res.ScenarioPhases {
				res.ScenarioPhases[i].Phase = i + 1
			}
		}
	}

	// Measurement accumulators, one per partition: recording never
	// crosses partitions. Partition 0 — the only one of a sequential
	// run — records into the result directly; the others are merged
	// into it in partition order afterwards.
	runs := []*stats.Run{res.Run}
	phases := [][]PhaseStat{res.ScenarioPhases}
	for range d.views[1:] {
		runs = append(runs, stats.NewRun())
		phases = append(phases, slices.Clone(res.ScenarioPhases))
	}

	// Progress per measured millisecond, per partition: attempts and
	// commits by the 1 ms bucket of [Warmup, Duration) they end in,
	// whenever their transaction began; the last bucket absorbs a
	// remainder under 1 ms. A bucket with attempts and no commit is a
	// stall, not a result.
	type progress struct{ attempts, commits uint64 }
	buckets := max(1, int((cfg.Duration-cfg.Warmup)/sim.Millisecond))
	window := make([][]progress, len(d.views))
	for i := range window {
		window[i] = make([]progress, buckets)
	}

	for rank, seat := range seats {
		coord, prun, pph, win := seat.Coordinator, runs[seat.Part], phases[seat.Part], window[seat.Part]
		seat.Env.Spawn(fmt.Sprintf("cn%d/coord%d", seat.Node, seat.Slot), func(p *sim.Proc) {
			for !stop {
				var txn *engine.Txn
				if timed != nil {
					// Park while the timeline gates this coordinator;
					// each wait lands on the next decision point (phase
					// boundary, burst edge, or resolution grid tick).
					for {
						w := timed.Gate(p.Now(), rank, len(seats))
						if w == 0 {
							break
						}
						p.Sleep(w)
						if stop {
							return
						}
					}
					txn = timed.NextAt(p.Now(), p.Rand())
				} else {
					txn = gen.Next(p.Rand())
				}
				start := p.Now()
				measured := start >= sim.Time(cfg.Warmup)
				var ps *PhaseStat
				if measured && pph != nil {
					ps = &pph[scn.PhaseAt(start)]
				}
				attempt := 0
				for {
					a := coord.Execute(p, txn)
					if end := p.Now(); end >= sim.Time(cfg.Warmup) && end < sim.Time(cfg.Duration) {
						b := &win[min(int(end.Sub(sim.Time(cfg.Warmup))/sim.Millisecond), buckets-1)]
						b.attempts++
						if a.Committed {
							b.commits++
						}
					}
					if measured {
						prun.RecordAttempt(a)
						if ps != nil {
							ps.Attempts++
							if !a.Committed {
								ps.Aborts++
							}
						}
					}
					if a.Committed {
						break
					}
					if stop {
						// Draining: give up on this transaction.
						return
					}
					if a.Reason == engine.AbortWait {
						// A release window is in progress; come back
						// shortly without escalating.
						p.Sleep(2*sim.Microsecond + sim.Duration(p.Rand().Int63n(int64(4*sim.Microsecond))))
						continue
					}
					attempt++
					p.Sleep(retry.Backoff(attempt, p.Rand()))
				}
				if measured {
					prun.RecordCommit(p.Now().Sub(start))
					if ps != nil {
						ps.Commits++
					}
				}
			}
		})
	}

	wallStart := time.Now()
	if err := d.sched.RunUntil(sim.Time(cfg.Duration)); err != nil {
		return res, err
	}
	stop = true
	if err := d.sched.Run(); err != nil { // drain in-flight transactions
		return res, err
	}
	res.Events = d.sched.Dispatched()
	if quiesced != nil {
		quiesced(d)
	}
	// The run is over and nothing below reads a region: the pool goes
	// back now, on the loop's clock. Unmapping what the run touched is
	// part of running it, not of setting it up (crestperf reads set-up
	// as Run minus WallMS); the deferred Close covers the error paths.
	d.Close()
	res.WallMS = float64(time.Since(wallStart)) / float64(time.Millisecond)
	// Fold the other partitions' accumulators in partition order — a
	// pure function of the simulation, independent of workers.
	for i := 1; i < len(runs); i++ {
		res.Run.Merge(runs[i])
		for j, ph := range phases[i] {
			res.ScenarioPhases[j].add(ph)
		}
	}
	if w := d.world; w != nil {
		ri := &RuntimeInfo{Sim: w.RuntimeStats(), Workers: w.Workers()}
		ri.Cross = make([]rdma.Stats, w.Parts())
		for i := range ri.Cross {
			ri.Cross[i] = d.fabric.CrossLaneStats(i)
		}
		res.Runtime = ri
	}
	res.Elapsed = cfg.Duration - cfg.Warmup
	res.Verbs = d.fabric.Stats().Sub(verbs0)
	if cfg.CheckHistory {
		res.History = d.db.Obs.History.Snapshot()
		res.HistoryErr = res.History.Check()
	}
	for i := range buckets {
		var sum progress
		for _, w := range window {
			sum.attempts, sum.commits = sum.attempts+w[i].attempts, sum.commits+w[i].commits
		}
		if sum.attempts > 0 && sum.commits == 0 {
			from := cfg.Warmup + sim.Duration(i)*sim.Millisecond
			to := from + sim.Millisecond
			if i == buckets-1 {
				to = cfg.Duration
			}
			return res, fmt.Errorf("bench: stalled: %d attempts, 0 commits in [%v, %v)",
				sum.attempts, time.Duration(from), time.Duration(to))
		}
	}
	// The buckets count attempts by when they end, the result by when
	// their transaction began: a window whose commits all began before
	// it passes the buckets while the result measured none.
	if res.Aborted > 0 && res.Committed == 0 {
		return res, fmt.Errorf("bench: stalled: %d measured attempts, 0 commits", res.Aborted)
	}
	return res, nil
}

// CRESTSystem unwraps a System adapter into the concrete CREST engine
// when the run uses a CREST variant (for recovery and diagnostics).
func CRESTSystem(s System) (*core.System, bool) {
	cs, ok := s.(crestSys)
	if !ok {
		return nil, false
	}
	return cs.System, true
}
