// Command crestbench regenerates the paper's tables and figures and
// runs ad-hoc benchmark configurations.
//
// Regenerate artifacts (ids: fig2 fig3 fig4 table1 table2 exp1..exp8
// scenario crossover tailprof; -list prints them):
//
//	crestbench -exp exp1
//	crestbench -exp all -quick -j 8
//	crestbench -exp all -quick -json BENCH_quick.json
//
// The experiments run as one deduplicated matrix: every unique
// configuration simulates exactly once per invocation, -j
// configurations in parallel (default GOMAXPROCS), with byte-identical
// output for any -j. -quick selects the CI-scale tables, as it does
// for -run; without it the near-paper-scale profile runs. -json writes
// every unique run as schema-versioned records.
//
// Run a single configuration:
//
//	crestbench -run -system crest -workload ycsb -theta 0.99 -coords 240
//
// Run a declarative scenario (workload spec file with a traffic
// timeline; see DESIGN.md §9 and examples/scenarios/):
//
//	crestbench -run -spec examples/scenarios/drift-demo.spec -quick
//
// All results are virtual-time measurements from the deterministic
// simulation; identical seeds reproduce identical numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	rttrace "runtime/trace"
	"slices"
	"time"

	"crest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runOutputs are the flags beside the RunSpec key table's that only -run
// consumes, and expOutputs the flags only -exp consumes. Of the table's
// keys -exp takes quick, its table scale.
var (
	runOutputs = []string{"spec", "big", "trace", "metrics", "why", "flight", "runtime-stats", "metrics-window"}
	expOutputs = []string{"j", "json", "baseline"}
)

// bigRun is the -big preset, the million-transaction topology: 10³
// coordinators on 4 shard groups, long enough to commit ~10⁶
// transactions. Explicit flags override any part of it, so CI can run a
// scaled-down smoke with -big -duration 3ms.
func bigRun() crest.RunSpec {
	s := crest.DefaultRun()
	s.Workload.Kind = crest.WorkloadSmallBank
	// Moderate skew: the profile measures scheduler throughput at scale,
	// not contention collapse — θ=0.99 at 10³ coordinators aborts ~95%
	// of attempts and commits almost nothing.
	s.Workload.Theta = 0.5
	s.Coordinators = 1000
	// The coordinator count wants more compute nodes than the default
	// testbed shape, and every shard group should home at least one of
	// them (coordinators land on groups round-robin by compute node).
	s.CompNodes = 8
	s.Shards, s.Placement = 4, "modulo"
	s.Duration, s.Warmup = 25*time.Millisecond, 2*time.Millisecond
	return s
}

// run executes one invocation and returns the process exit code. It
// is the unit-testable seam: main only binds it to os streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crestbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "experiment id to regenerate, or 'all'")
		jobs     = fs.Int("j", 0, "parallel simulations for -exp (default GOMAXPROCS)")
		jsonOut  = fs.String("json", "", "with -exp: write per-run JSON records to this file")
		baseline = fs.String("baseline", "", "with -exp: compare per-run KOPS against this BENCH_*.json baseline")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		runOne   = fs.Bool("run", false, "run a single benchmark configuration")
		specPath = fs.String("spec", "", "with -run: drive the run from a declarative scenario .spec file (overrides -workload and its knobs)")
		workers  = fs.Int("workers", 1, "scheduler threads executing shard-group partitions concurrently (results are byte-identical at any count; 1 = sequential)")
		big      = fs.Bool("big", false, "with -run: the million-transaction profile (1000 coordinators, 4 shard groups, 8 compute nodes, smallbank θ=0.5; explicit flags override)")
		traceOut = fs.String("trace", "", "with -run: write the run's event trace to this file (.spans per-txn span timelines, Chrome trace_event JSON for any other extension)")
		metOut   = fs.String("metrics", "", "with -run: write the run's windowed metrics to this file (.csv, .json or .prom by extension)")
		whyOut   = fs.String("why", "", "with -run: write the run's contention graph for abort forensics to this file (.dot or crest-why .json by extension)")
		flOut    = fs.String("flight", "", "with -run: write the run's per-txn latency budgets and tail exemplars to this file (crest-flight .json, or the rendered tail report for any other extension)")
		rtStats  = fs.String("runtime-stats", "", "with -run: write the window executor's runtime introspection (crest-runtime JSON) to this file (partitioned runs only)")
		metWin   = fs.Duration("metrics-window", 100*time.Microsecond, "with -metrics: time-series window in virtual time")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
		rtTrace  = fs.String("runtimetrace", "", "write a Go runtime execution trace to this file")
	)
	// The run-description flags: the RunSpec key table, crest.DefaultRun
	// as the preset.
	crest.DefaultRun().Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "crestbench: "+format+"\n", args...)
		return 1
	}
	// export writes one output file (crest.Export picks the format) and
	// reports it, or why it failed, on stderr.
	export := func(path string, snapshot any) bool {
		summary, err := crest.Export(path, snapshot)
		if err != nil {
			fatalf("%v", err)
			return false
		}
		fmt.Fprintln(stderr, summary)
		return true
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "crestbench: "+format+"\n", args...)
		fmt.Fprintf(stderr, "usage: crestbench -exp <id> [flags] | crestbench -run [flags] | crestbench -list\n")
		fs.Usage()
		return 2
	}

	// The scheduler needs a worker; counts beyond the partition count
	// are clamped.
	if *workers < 1 {
		return usageErr("-workers must be >= 1 (got %d)", *workers)
	}
	// -j 0 runs GOMAXPROCS simulations at once.
	if *jobs < 0 {
		return usageErr("-j must be >= 0 (got %d)", *jobs)
	}
	modes := 0
	for _, on := range []bool{*list, *expID != "", *runOne} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return usageErr("-list, -exp and -run are exclusive")
	}
	spec := crest.DefaultRun()
	if *big {
		spec = bigRun()
	}
	// passed names the run keys given; specErr is only -run's to report.
	passed, specErr := spec.SetFlags(fs)
	// -exp and -list take their run descriptions from the experiment
	// definitions (-exp its table scale from -quick), and -run and -list
	// write no matrix: a flag of another mode would be silently ignored.
	stray, owner := "", ""
	fs.Visit(func(f *flag.Flag) {
		switch {
		case stray != "", *expID != "" && f.Name == "quick":
		case !*runOne && (passed[f.Name] || slices.Contains(runOutputs, f.Name)):
			stray, owner = f.Name, "-run"
		case *expID == "" && slices.Contains(expOutputs, f.Name):
			stray, owner = f.Name, "-exp"
		}
	})
	if stray != "" {
		return usageErr("-%s only applies to %s", stray, owner)
	}

	// The simulator's steady state allocates little, so the default GC
	// pacing spends its time rescanning a near-constant heap. Relax it
	// unless the operator set GOGC themselves. Virtual-time results are
	// unaffected; only wall-clock speed changes.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatalf("starting CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *rtTrace != "" {
		f, err := os.Create(*rtTrace)
		if err != nil {
			return fatalf("%v", err)
		}
		if err := rttrace.Start(f); err != nil {
			return fatalf("starting runtime trace: %v", err)
		}
		defer func() {
			rttrace.Stop()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "crestbench: %v\n", err)
				return
			}
			// The profile holds what the last completed GC cycle saw; with
			// GOGC=400 that is a fraction of a short run without this.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "crestbench: writing heap profile: %v\n", err)
			}
			f.Close()
		}()
	}

	switch {
	case *list:
		for _, id := range crest.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
	case *expID != "":
		var ids []string
		if *expID != "all" {
			ids = []string{*expID}
		}
		start := time.Now()
		m, err := crest.RunMatrix(ids, spec.Profile == "quick", crest.MatrixOptions{
			Workers:    *jobs,
			SimWorkers: *workers,
		})
		if err != nil {
			return fatalf("%v", err)
		}
		fmt.Fprint(stdout, m.FormatTables())
		if *jsonOut != "" && !export(*jsonOut, m) {
			return 1
		}
		if *baseline != "" {
			base, err := crest.ReadFile(*baseline, crest.ReadBenchJSON)
			if err != nil {
				return fatalf("%v", err)
			}
			cmp := crest.CompareBenchResultSets(base, m.ResultSet())
			fmt.Fprintf(stdout, "KOPS vs %s:\n%s", *baseline, cmp.Format())
		}
		fmt.Fprintf(stderr, "[%d experiment(s), %d unique runs, %s profile, %v wall time]\n",
			len(m.Experiments), len(m.Records), m.Profile,
			time.Since(start).Round(time.Millisecond))
		if p := m.Perf; p != nil {
			fmt.Fprintf(stderr, "[sim: %d events in %.0f ms event-loop time, %.2fM events/sec]\n",
				p.Events, p.SimWallMS, p.EventsPerSec/1e6)
		}
	case *runOne:
		if specErr != nil {
			return usageErr("%v", specErr)
		}
		if *specPath != "" {
			sc, err := crest.ParseScenarioFile(*specPath)
			if err != nil {
				return fatalf("%v", err)
			}
			// The run covers the whole timeline unless the operator asked
			// for a specific -duration.
			if passed["duration"] {
				spec.Scenario = sc
			} else {
				spec = spec.WithScenario(sc)
			}
		}
		cfg := crest.BenchmarkConfig{RunSpec: spec, Workers: *workers, ObserverOptions: crest.ObserverOptions{
			Trace: *traceOut != "", Metrics: *metOut != "", MetricsWindow: *metWin,
			Why: *whyOut != "", Flight: *flOut != ""}}
		res, err := crest.RunBenchmark(cfg)
		if err != nil {
			return fatalf("%v", err)
		}
		// Observer output goes to its file and stderr only: the run's
		// stdout stays byte-identical with and without it.
		if *traceOut != "" && !export(*traceOut, res.Trace) {
			return 1
		}
		if *metOut != "" {
			if err := crest.WriteMetricsSparklines(stderr, res.Metrics); err != nil {
				return fatalf("writing sparklines: %v", err)
			}
			if !export(*metOut, res.Metrics) {
				return 1
			}
		}
		if *whyOut != "" && !export(*whyOut, res.Why) {
			return 1
		}
		if *flOut != "" && !export(*flOut, res.Flight) {
			return 1
		}
		if *rtStats != "" {
			// The wall-clock fields inside the runtime introspection are
			// the nondeterministic part of that document.
			if res.Runtime == nil {
				return fatalf("-runtime-stats: run was not partitioned (needs -shards > 1 with a partition-safe workload)")
			}
			if !export(*rtStats, res.Runtime) {
				return 1
			}
		}
		fmt.Fprintln(stdout, res)
		fmt.Fprintf(stdout, "  committed=%d aborted=%d false-abort=%.1f%%\n", res.Committed, res.Aborted, 100*res.FalseAbortRate)
		fmt.Fprintf(stdout, "  latency µs: avg=%.1f p50=%.1f p99=%.1f p999=%.1f\n",
			res.Latency.Avg, res.Latency.P50, res.Latency.P99, res.Latency.P999)
		fmt.Fprintf(stdout, "  phases µs: exec=%.1f validate=%.1f commit=%.1f\n", res.Phases.Exec, res.Phases.Validate, res.Phases.Commit)
		for _, ps := range res.ScenarioPhases {
			fmt.Fprintf(stdout, "  phase %d: attempts=%d commits=%d aborts=%d abort-rate=%.1f%%\n",
				ps.Phase, ps.Attempts, ps.Commits, ps.Aborts, 100*ps.AbortRate())
		}
		if res.WallMS > 0 {
			virtualMS := float64(cfg.Duration) / float64(time.Millisecond)
			fmt.Fprintf(stderr, "[sim: %.1f ms virtual in %.1f ms wall (%.2fx real time), %d events, %.2fM events/sec]\n",
				virtualMS, res.WallMS, virtualMS/res.WallMS, res.Events, res.EventsPerSec()/1e6)
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}
