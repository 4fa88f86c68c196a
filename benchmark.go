package crest

import (
	"fmt"
	"io"

	"crest/internal/bench"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
	"crest/internal/workload/ycsb"
)

// Workload kinds a WorkloadSpec can name.
const (
	WorkloadTPCC      = bench.WLTPCC
	WorkloadSmallBank = bench.WLSmallBank
	WorkloadYCSB      = bench.WLYCSB
)

// WorkloadSpec is the workload section of a RunSpec: a kind plus the
// knobs the paper sweeps (warehouses, theta, write ratio, records per
// transaction).
type WorkloadSpec = bench.WorkloadSpec

// DefaultRun returns the evaluation-default run description (what
// `crestbench -run` runs with no other flag, mirroring the paper's
// §8.2 methodology).
func DefaultRun() RunSpec { return bench.DefaultRun() }

// BenchmarkConfig is one measured run: its description plus what must
// never enter a run key.
type BenchmarkConfig struct {
	// RunSpec describes the run: system, workload, topology, duration,
	// seed, table-scale profile, and (Scenario) an optional declarative
	// scenario that replaces the workload and modulates load and
	// hotspot placement over virtual time. Zero fields take DefaultRun's
	// values; a Workload that names only its Kind takes that workload's
	// default knobs, while one with any knob set is taken literally
	// (so Theta 0 then means uniform). Same spec, byte-identical run.
	RunSpec

	// Workers is how many OS threads execute the simulation's
	// shard-group partitions concurrently (sharded topologies with a
	// partition-safe workload; other runs ignore it). It is an
	// invocation-level performance knob: every worker count produces
	// byte-identical results — including trace, metrics and why
	// snapshots, which record into per-partition shards and merge
	// deterministically — so only the wall-clock measurements (WallMS,
	// EventsPerSec, the nondeterministic RuntimeStats fields) change.
	// 0 means 1.
	Workers int

	// ObserverOptions selects the observers recording the run; each
	// snapshot comes back in the BenchmarkResult field of its name.
	ObserverOptions
}

// BenchmarkResult is a run's record plus what a record may never hold.
type BenchmarkResult struct {
	// RunRecord is the run's durable outcome in the paper's units — the
	// resolved spec and its key, KOPS, commit and abort counts and rates,
	// the latency and per-phase digests (µs), verbs, Events (scheduler
	// dispatches: same spec, same count) and the per-phase breakdown of
	// a scenario-driven run. It is the record RunMatrix would memoize
	// and -json would emit for the same spec.
	RunRecord

	// Workload is the generator's name ("tpcc", "scenario:<name>").
	Workload string

	// WallMS is the real time the event loop took: a nondeterministic
	// measurement of the simulator itself, not of the simulated system.
	WallMS float64

	// Trace is the run's event trace when BenchmarkConfig.Trace was
	// set (render with WriteChromeTrace / WriteSpanSummary /
	// WriteHotKeys), nil otherwise.
	Trace *TraceSnapshot

	// Metrics is the run's windowed metrics snapshot when
	// BenchmarkConfig.Metrics was set (render with
	// WriteMetricsPrometheus / WriteMetricsCSV / WriteMetricsJSON /
	// WriteMetricsSparklines), nil otherwise.
	Metrics *MetricsSnapshot

	// Why is the run's causality snapshot when BenchmarkConfig.Why was
	// set (render with WriteWhyBlame / WriteWhyDOT / WriteWhyJSON),
	// nil otherwise.
	Why *WhySnapshot

	// Flight is the run's latency-budget snapshot when
	// BenchmarkConfig.Flight was set (render with WriteFlightTail /
	// WriteFlightCritPath / WriteFlightJSON), nil otherwise.
	Flight *FlightSnapshot

	// Runtime is the window executor's introspection when the run was
	// partitioned (Shards > 1 with a partition-safe workload), nil
	// otherwise. Its wall-clock fields are nondeterministic; see
	// RuntimeStats for which fields are schedule-derived.
	Runtime *RuntimeStats
}

// EventsPerSec is the simulator speed the run reached, Events over
// WallMS (nondeterministic, like WallMS).
func (r BenchmarkResult) EventsPerSec() float64 { return bench.EventsPerSec(r.Events, r.WallMS) }

// String summarizes the result in one line.
func (r BenchmarkResult) String() string {
	return fmt.Sprintf("%s/%s @%d coordinators: %.1f KOPS, abort %.1f%%, avg %.1fµs p99 %.1fµs p999 %.1fµs",
		r.Spec.System, r.Workload, r.Spec.Coordinators, r.KOPS, 100*r.AbortRate,
		r.Latency.Avg, r.Latency.P99, r.Latency.P999)
}

// RunBenchmark executes one measured run and returns its metrics. A
// run description RunSpec.Validate rejects, or a negative
// MetricsWindow, is an error, not a panic or a silent default.
func RunBenchmark(cfg BenchmarkConfig) (BenchmarkResult, error) {
	spec, profile, err := cfg.RunSpec.Resolve()
	if err != nil {
		return BenchmarkResult{}, fmt.Errorf("crest: %w", err)
	}
	if err := cfg.ObserverOptions.validate(); err != nil {
		return BenchmarkResult{}, err
	}
	obs := cfg.recorders()
	rec, res, err := bench.Execute(spec, profile, bench.Config{Workers: cfg.Workers,
		Trace: obs.Trace, Metrics: obs.Metrics, Why: obs.Why, Flight: obs.Flight})
	if err != nil {
		return BenchmarkResult{}, err
	}
	out := BenchmarkResult{
		RunRecord: *rec,
		Workload:  res.Workload,
		WallMS:    res.WallMS,
		Runtime:   newRuntimeStats(res.Runtime, res.WallMS, res.Events),
	}
	out.Trace, out.Metrics, out.Why, out.Flight = snapshots(obs)
	return out, nil
}

// ExperimentTable is one regenerated artifact of the paper (a table or
// a figure's data series).
type ExperimentTable = bench.Table

// ExperimentIDs lists the reproducible artifacts in the paper's order:
// fig2–fig4 (motivation), table1–table2 (analysis), exp1–exp8
// (evaluation).
func ExperimentIDs() []string { return bench.ExperimentIDs() }

// RunExperiment regenerates one paper artifact: RunMatrix over the one
// id. quick selects the CI-sized profile; otherwise the near-paper-scale
// profile runs (see EXPERIMENTS.md for expected output and timings).
// Use RunMatrix to share runs across several experiments and to collect
// machine-readable records.
func RunExperiment(id string, quick bool) ([]ExperimentTable, error) {
	m, err := RunMatrix([]string{id}, quick, MatrixOptions{})
	if err != nil {
		return nil, err
	}
	return m.Experiments[0].Tables, nil
}

// The experiment-matrix surface: a RunSpec canonically identifies one
// deterministic run, a RunRecord is its schema-versioned outcome, and
// RunMatrix executes the deduplicated spec set of many experiments on
// a worker pool. See internal/bench's matrix runner for semantics.
type (
	// RunSpec canonically identifies one deterministic benchmark run.
	RunSpec = bench.RunSpec
	// RunRecord is one run's durable, machine-readable outcome.
	RunRecord = bench.RunRecord
	// MatrixOptions configure parallelism and the on-disk result cache.
	MatrixOptions = bench.MatrixOptions
	// MatrixResult is a matrix invocation's tables plus per-run records.
	MatrixResult = bench.MatrixResult
	// BenchResultSet is the schema-versioned JSON document of a matrix
	// invocation's unique runs.
	BenchResultSet = bench.ResultSet
	// BenchPerf is an invocation's simulator wall-clock summary (the
	// nondeterministic "perf" object of a measured BenchResultSet).
	BenchPerf = bench.BenchPerf
)

// BenchSchemaVersion identifies the JSON layout of RunRecord /
// BenchResultSet (the BENCH_*.json artifacts).
const BenchSchemaVersion = bench.SchemaVersion

// RunMatrix regenerates the named experiments (all of them when ids is
// empty) over one shared result store: every unique RunSpec executes
// exactly once — in parallel on opt.Workers simulations (GOMAXPROCS
// when ≤ 0), reusing opt.CacheDir across invocations when set — and
// the rendered tables are byte-identical for any worker count.
func RunMatrix(ids []string, quick bool, opt MatrixOptions) (*MatrixResult, error) {
	profile := bench.Full()
	if quick {
		profile = bench.Quick()
	}
	return bench.RunMatrix(ids, profile, opt)
}

// WriteBenchJSON emits a matrix invocation's per-run records as
// schema-versioned JSON (the BENCH_*.json format). The records are
// deterministic; the optional top-level "perf" object carries the
// invocation's wall-clock simulator measurements and is the one
// nondeterministic part — strip it (or compare ResultSet().Encode
// output) when diffing artifacts.
func WriteBenchJSON(w io.Writer, m *MatrixResult) error {
	return m.MeasuredResultSet().Encode(w)
}

// ReadBenchJSON parses a document written by WriteBenchJSON and
// verifies its schema version.
func ReadBenchJSON(r io.Reader) (*BenchResultSet, error) {
	return bench.DecodeResultSet(r)
}

// BenchComparison is a per-run KOPS diff of one result set against a
// baseline (see CompareBenchResultSets).
type BenchComparison = bench.Comparison

// CompareBenchResultSets diffs cur against base by canonical run key;
// render the result with its Format method. CI uses this to print the
// throughput delta of every quick-profile run against the checked-in
// BENCH_quick.json baseline.
func CompareBenchResultSets(base, cur *BenchResultSet) *BenchComparison {
	return bench.CompareResultSets(base, cur)
}

// Workload generator re-exports for custom harnesses.
var (
	// NewTPCC builds the TPC-C-style generator.
	NewTPCC = tpcc.New
	// NewSmallBank builds the SmallBank generator.
	NewSmallBank = smallbank.New
	// NewYCSB builds the transactional YCSB generator.
	NewYCSB = ycsb.New
)
