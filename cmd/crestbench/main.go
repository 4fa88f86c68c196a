// Command crestbench regenerates the paper's tables and figures and
// runs ad-hoc benchmark configurations.
//
// Regenerate artifacts (ids: fig2 fig3 fig4 table1 table2 exp1..exp8
// scenario):
//
//	crestbench -exp exp1
//	crestbench -exp all -profile quick -j 8
//	crestbench -exp all -profile quick -json BENCH_quick.json -cache .benchcache
//
// The experiments run as one deduplicated matrix: every unique
// configuration simulates exactly once, -j configurations in parallel
// (default GOMAXPROCS), with byte-identical output for any -j. -json
// writes every unique run as schema-versioned records; -cache reuses
// results across invocations.
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
	"runtime/debug"
	"runtime/pprof"
	rttrace "runtime/trace"
	"strings"
	"time"

	"crest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validSystems and validWorkloads are the values -run accepts; they
// are checked up front so a typo fails with usage instead of deep in
// the harness.
var validSystems = []string{"crest", "crest-cell", "crest-base", "ford", "motor"}
var validWorkloads = []string{"tpcc", "smallbank", "ycsb"}

func oneOf(v string, valid []string) bool {
	for _, s := range valid {
		if v == s {
			return true
		}
	}
	return false
}

// run executes one invocation and returns the process exit code. It
// is the unit-testable seam: main only binds it to os streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crestbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "experiment id to regenerate, or 'all'")
		profile  = fs.String("profile", "full", "experiment profile: quick or full")
		jobs     = fs.Int("j", 0, "parallel simulations for -exp (default GOMAXPROCS)")
		jsonOut  = fs.String("json", "", "with -exp: write per-run JSON records to this file")
		baseline = fs.String("baseline", "", "with -exp: compare per-run KOPS against this BENCH_*.json baseline")
		cacheDir = fs.String("cache", "", "with -exp: on-disk result cache directory for incremental re-runs")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		runOne   = fs.Bool("run", false, "run a single benchmark configuration")
		system   = fs.String("system", "crest", "system: crest, crest-cell, crest-base, ford, motor")
		workload = fs.String("workload", "tpcc", "workload: tpcc, smallbank, ycsb")
		specPath = fs.String("spec", "", "with -run: drive the run from a declarative scenario .spec file (overrides -workload and its knobs)")
		coords   = fs.Int("coords", 240, "total coordinators (across 3 compute nodes)")
		shards   = fs.Int("shards", 1, "shard groups of independent memory nodes (1 = the classic single-group topology)")
		workers  = fs.Int("workers", 1, "scheduler threads executing shard-group partitions concurrently (results are byte-identical at any count; 1 = sequential)")
		big      = fs.Bool("big", false, "with -run: the million-transaction profile (1000 coordinators, 4 shard groups, 8 compute nodes, smallbank θ=0.5; explicit flags override)")
		placePol = fs.String("placement", "hash", "data placement policy: "+strings.Join(crest.PlacementPolicies(), ", "))
		wh       = fs.Int("warehouses", 40, "TPC-C warehouses")
		theta    = fs.Float64("theta", 0.99, "Zipfian constant (smallbank/ycsb)")
		writes   = fs.Float64("writes", 0.5, "YCSB write ratio")
		perTxn   = fs.Int("n", 4, "YCSB records per transaction")
		duration = fs.Duration("duration", 20*time.Millisecond, "total virtual time of the run, warmup included")
		warmup   = fs.Duration("warmup", 4*time.Millisecond, "virtual warmup excluded from measurement")
		seed     = fs.Int64("seed", 1, "simulation seed")
		quick    = fs.Bool("quick", false, "use CI-scale table sizes")
		traceOut = fs.String("trace", "", "with -run: write a Chrome trace_event JSON of the run to this file")
		metOut   = fs.String("metrics", "", "with -run: write the run's windowed metrics to this file (.csv, .json or .prom by extension)")
		whyOut   = fs.String("why", "", "with -run: write the run's contention graph for abort forensics to this file (.dot or crest-why .json by extension)")
		flOut    = fs.String("flight", "", "with -run: write the run's per-txn latency budgets and tail exemplars to this file (crest-flight .json, or the rendered tail report for any other extension)")
		rtStats  = fs.String("runtime-stats", "", "with -run: write the window executor's runtime introspection (crest-runtime JSON) to this file (partitioned runs only)")
		metWin   = fs.Duration("metrics-window", 100*time.Microsecond, "with -metrics: time-series window in virtual time")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
		rtTrace  = fs.String("runtimetrace", "", "write a Go runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "crestbench: "+format+"\n", args...)
		return 1
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "crestbench: "+format+"\n", args...)
		fmt.Fprintf(stderr, "usage: crestbench -exp <id> [flags] | crestbench -run [flags] | crestbench -list\n")
		fs.Usage()
		return 2
	}

	// The -big profile is a flag preset: the million-transaction
	// topology (10³ coordinators on 4 shard groups, long enough to
	// commit ~10⁶ transactions). Explicit flags override any part of
	// it, so CI can run a scaled-down smoke with -big -duration 3ms.
	// Only -run consumes the preset; -exp rejects -big below.
	if *big && *runOne {
		if !flagSet(fs, "workload") {
			*workload = "smallbank"
		}
		if !flagSet(fs, "shards") {
			*shards = 4
		}
		if !flagSet(fs, "placement") {
			*placePol = "modulo"
		}
		if !flagSet(fs, "coords") {
			*coords = 1000
		}
		// Moderate skew: the profile measures scheduler throughput at
		// scale, not contention collapse — θ=0.99 at 10³ coordinators
		// aborts ~95% of attempts and commits almost nothing.
		if !flagSet(fs, "theta") {
			*theta = 0.5
		}
		if !flagSet(fs, "duration") {
			*duration = 25 * time.Millisecond
		}
		if !flagSet(fs, "warmup") {
			*warmup = 2 * time.Millisecond
		}
	}

	// Topology flags are validated up front so a typo fails with usage
	// instead of deep in the harness.
	if *shards < 1 {
		return usageErr("-shards must be at least 1, got %d", *shards)
	}
	if *shards > crest.MaxShards {
		return usageErr("-shards %d exceeds the maximum of %d", *shards, crest.MaxShards)
	}
	placement := strings.ToLower(*placePol)
	if !oneOf(placement, crest.PlacementPolicies()) {
		return usageErr("unknown placement %q (%s)", *placePol, strings.Join(crest.PlacementPolicies(), ", "))
	}
	if err := crest.ValidateWorkers(*workers); err != nil {
		return usageErr("%v", err)
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
		if *specPath != "" {
			return usageErr("-spec only applies to -run")
		}
		if *rtStats != "" {
			return usageErr("-runtime-stats only applies to -run")
		}
		if *shards != 1 || placement != "hash" {
			return usageErr("-shards/-placement only apply to -run; experiments set topology per spec (see the crossover experiment)")
		}
		if *big {
			return usageErr("-big only applies to -run")
		}
		var ids []string
		if *expID != "all" {
			ids = []string{*expID}
		}
		quickProfile := *profile == "quick"
		if !quickProfile && *profile != "full" {
			return usageErr("unknown profile %q (quick or full)", *profile)
		}
		start := time.Now()
		m, err := crest.RunMatrix(ids, quickProfile, crest.MatrixOptions{
			Workers:    *jobs,
			SimWorkers: *workers,
			CacheDir:   *cacheDir,
		})
		if err != nil {
			return fatalf("%v", err)
		}
		for _, exp := range m.Experiments {
			for _, tab := range exp.Tables {
				fmt.Fprintln(stdout, tab.Format())
			}
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return fatalf("%v", err)
			}
			if err := crest.WriteBenchJSON(f, m); err != nil {
				return fatalf("writing %s: %v", *jsonOut, err)
			}
			if err := f.Close(); err != nil {
				return fatalf("%v", err)
			}
			fmt.Fprintf(stderr, "[json: %d run records -> %s]\n", len(m.Records), *jsonOut)
		}
		if *baseline != "" {
			f, err := os.Open(*baseline)
			if err != nil {
				return fatalf("%v", err)
			}
			base, err := crest.ReadBenchJSON(f)
			f.Close()
			if err != nil {
				return fatalf("reading %s: %v", *baseline, err)
			}
			cmp := crest.CompareBenchResultSets(base, m.ResultSet())
			fmt.Fprintf(stdout, "KOPS vs %s:\n%s", *baseline, cmp.Format())
		}
		fmt.Fprintf(stderr, "[%d experiment(s), %d unique runs (%d simulated, %d cached), %s profile, %v wall time]\n",
			len(m.Experiments), len(m.Records), m.Simulated, m.CacheHits, *profile,
			time.Since(start).Round(time.Millisecond))
		if p := m.Perf; p != nil {
			fmt.Fprintf(stderr, "[sim: %d events in %.0f ms event-loop time, %.2fM events/sec]\n",
				p.Events, p.SimWallMS, p.EventsPerSec/1e6)
		}
	case *runOne:
		sys := strings.ToLower(*system)
		if !oneOf(sys, validSystems) {
			return usageErr("unknown system %q (%s)", *system, strings.Join(validSystems, ", "))
		}
		wl := strings.ToLower(*workload)
		if *specPath == "" && !oneOf(wl, validWorkloads) {
			return usageErr("unknown workload %q (%s)", *workload, strings.Join(validWorkloads, ", "))
		}
		cfg := crest.BenchmarkConfig{
			System:        crest.System(sys),
			Workload:      wl,
			Warehouses:    *wh,
			Theta:         *theta,
			WriteRatio:    *writes,
			RecordsPerTx:  *perTxn,
			Shards:        *shards,
			Placement:     placement,
			Coordinators:  *coords,
			Duration:      *duration,
			Warmup:        *warmup,
			Seed:          *seed,
			Quick:         *quick,
			Workers:       *workers,
			Trace:         *traceOut != "",
			Metrics:       *metOut != "",
			MetricsWindow: *metWin,
			Why:           *whyOut != "",
			Flight:        *flOut != "",
		}
		if *big {
			// The preset's coordinator count wants more compute nodes
			// than the default testbed shape, and every shard group
			// should home at least one of them (coordinators land on
			// groups round-robin by compute node).
			cfg.ComputeNodes = 8
		}
		if *specPath != "" {
			sc, err := crest.ParseScenarioFile(*specPath)
			if err != nil {
				return fatalf("%v", err)
			}
			cfg.Scenario = sc
			// The measured window must cover the whole timeline unless
			// the operator asked for a specific -duration.
			if tl := sc.TimelineDuration(); time.Duration(tl) > cfg.Duration && !flagSet(fs, "duration") {
				cfg.Duration = time.Duration(tl)
			}
		}
		res, err := crest.RunBenchmark(cfg)
		if err != nil {
			return fatalf("%v", err)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fatalf("%v", err)
			}
			if err := crest.WriteChromeTrace(f, res.Trace); err != nil {
				return fatalf("writing trace: %v", err)
			}
			if err := f.Close(); err != nil {
				return fatalf("%v", err)
			}
			fmt.Fprintf(stderr, "[trace: %d events -> %s]\n", len(res.Trace.Events), *traceOut)
		}
		if *metOut != "" {
			// Metrics output goes to its file and stderr only: the run's
			// stdout stays byte-identical with and without -metrics.
			if err := writeMetrics(*metOut, res.Metrics); err != nil {
				return fatalf("%v", err)
			}
			if err := crest.WriteMetricsSparklines(stderr, res.Metrics); err != nil {
				return fatalf("writing sparklines: %v", err)
			}
			fmt.Fprintf(stderr, "[metrics: %d series, %d windows -> %s]\n",
				len(res.Metrics.Series), len(res.Metrics.Times), *metOut)
		}
		if *whyOut != "" {
			// Forensics output goes to its file and stderr only: the
			// run's stdout stays byte-identical with and without -why.
			if err := writeWhy(*whyOut, res.Why); err != nil {
				return fatalf("%v", err)
			}
			fmt.Fprintf(stderr, "[why: %d txns, %d edges -> %s]\n",
				len(res.Why.Txns), len(res.Why.Edges), *whyOut)
		}
		if *flOut != "" {
			// Flight output goes to its file and stderr only: the run's
			// stdout stays byte-identical with and without -flight.
			if err := writeFlight(*flOut, res.Flight); err != nil {
				return fatalf("%v", err)
			}
			fmt.Fprintf(stderr, "[flight: %d txns, %d exemplars -> %s]\n",
				len(res.Flight.Txns), len(res.Flight.Exemplars), *flOut)
		}
		if *rtStats != "" {
			// Runtime introspection goes to its file and stderr only, like
			// the other observer outputs; the wall-clock fields inside it
			// are the nondeterministic part of the document.
			if res.Runtime == nil {
				return fatalf("-runtime-stats: run was not partitioned (needs -shards > 1 with a partition-safe workload)")
			}
			f, err := os.Create(*rtStats)
			if err != nil {
				return fatalf("%v", err)
			}
			if err := crest.WriteRuntimeStats(f, res.Runtime); err != nil {
				return fatalf("writing runtime stats: %v", err)
			}
			if err := f.Close(); err != nil {
				return fatalf("%v", err)
			}
			fmt.Fprintf(stderr, "[runtime: %d windows, %d partitions, %d workers -> %s]\n",
				res.Runtime.Windows, res.Runtime.Parts, res.Runtime.Workers, *rtStats)
		}
		fmt.Fprintln(stdout, res)
		fmt.Fprintf(stdout, "  committed=%d aborted=%d false-abort=%.1f%%\n", res.Committed, res.Aborted, 100*res.FalseAbortRate)
		fmt.Fprintf(stdout, "  latency µs: avg=%.1f p50=%.1f p99=%.1f p999=%.1f\n",
			res.AvgLatencyUs, res.P50LatencyUs, res.P99LatencyUs, res.P999LatencyUs)
		fmt.Fprintf(stdout, "  phases µs: exec=%.1f validate=%.1f commit=%.1f\n", res.ExecUs, res.ValidateUs, res.CommitUs)
		for _, ps := range res.ScenarioPhases {
			fmt.Fprintf(stdout, "  phase %d: attempts=%d commits=%d aborts=%d abort-rate=%.1f%%\n",
				ps.Phase, ps.Attempts, ps.Commits, ps.Aborts, 100*ps.AbortRate())
		}
		if res.WallMS > 0 {
			virtualMS := float64(cfg.Duration) / float64(time.Millisecond)
			fmt.Fprintf(stderr, "[sim: %.1f ms virtual in %.1f ms wall (%.2fx real time), %d events, %.2fM events/sec]\n",
				virtualMS, res.WallMS, virtualMS/res.WallMS, res.Events, res.EventsPerSec/1e6)
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// flagSet reports whether the operator passed the named flag.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// writeMetrics writes the snapshot to path in the format its extension
// selects: .csv (windowed time-series), .json (schema-versioned
// document), anything else Prometheus text exposition format.
func writeMetrics(path string, s *crest.MetricsSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".csv"):
		err = crest.WriteMetricsCSV(f, s)
	case strings.HasSuffix(path, ".json"):
		err = crest.WriteMetricsJSON(f, s)
	default:
		err = crest.WriteMetricsPrometheus(f, s)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeFlight writes the flight snapshot to path: .json selects the
// schema-versioned crest-flight document, anything else the rendered
// aggregate tail report.
func writeFlight(path string, s *crest.FlightSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = crest.WriteFlightJSON(f, s)
	} else {
		err = crest.WriteFlightTail(f, s, 5)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeWhy writes the causality snapshot to path: .json selects the
// schema-versioned crest-why document, anything else Graphviz DOT.
func writeWhy(path string, s *crest.WhySnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = crest.WriteWhyJSON(f, s)
	} else {
		err = crest.WriteWhyDOT(f, s)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
