// Command cresttrace runs a workload under one of the simulated
// transaction systems with observability on and renders what it
// recorded.
//
// Emit a Perfetto/chrome://tracing-compatible JSON timeline:
//
//	cresttrace -system crest -workload smallbank -format json -o trace.json
//
// Print per-transaction span timelines (virtual-time phase durations
// with round-trip attribution):
//
//	cresttrace -system ford -workload smallbank -format spans
//
// Print the hot-key contention profile (top-K cells by conflict and
// abort count):
//
//	cresttrace -workload ycsb -theta 0.99 -format hotkeys -top 10
//
// Explain why a transaction aborted (blame chain with per-hop virtual
// wait durations), from a fresh run or from a saved crest-why JSON
// export:
//
//	cresttrace why -workload smallbank -theta 0.99 412
//	cresttrace why -in why.json 412
//
// Export the aggregated contention dependency graph (hotspots and
// wait cycles) as Graphviz DOT or crest-why JSON:
//
//	cresttrace graph -workload smallbank -theta 0.99 -o why.dot
//	cresttrace graph -in why.json -format json
//
// Render the window executor's window/barrier timeline for a
// partitioned run, from a fresh run or from a saved crestbench
// -runtime-stats export:
//
//	cresttrace windows -workload smallbank -shards 4 -workers 4
//	cresttrace windows -in runtime.json
//
// Decompose tail latency into an additive per-component budget (wire,
// lock-wait, backoff, queueing, per-phase compute) and walk one
// outlier's critical path across its retries, from a fresh run or
// from a saved crestbench -flight JSON export:
//
//	cresttrace tail -workload smallbank -theta 0.99
//	cresttrace tail -in flight.json -top 10
//	cresttrace critpath -in flight.json 412
//
// Output is deterministic: the same seed and configuration produce
// byte-identical traces, blame chains, graphs and timelines — at any
// -workers count (observers record into per-partition shards and merge
// deterministically, so -workers only changes wall-clock speed).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"crest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: cresttrace [flags]                 render an event trace (legacy default)
       cresttrace trace [flags]           same, explicitly
       cresttrace why [flags] <txnid>     explain one transaction's abort
       cresttrace graph [flags]           export the contention graph (DOT or JSON)
       cresttrace windows [flags]         render the window executor timeline (partitioned runs)
       cresttrace tail [flags]            decompose tail latency into per-component budgets
       cresttrace critpath [flags] <txnid>  walk one transaction's critical path across retries

Run 'cresttrace <subcommand> -h' for the subcommand's flags.
`

func usage(stderr io.Writer) {
	fmt.Fprint(stderr, usageText)
}

// run dispatches the subcommand and returns the process exit code. It
// is the unit-testable seam: main only binds it to os streams.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "trace":
			return runTrace(args[1:], stdout, stderr)
		case "why":
			return runWhy(args[1:], stdout, stderr)
		case "graph":
			return runGraph(args[1:], stdout, stderr)
		case "windows":
			return runWindows(args[1:], stdout, stderr)
		case "tail":
			return runTail(args[1:], stdout, stderr)
		case "critpath":
			return runCritPath(args[1:], stdout, stderr)
		default:
			fmt.Fprintf(stderr, "cresttrace: unknown subcommand %q\n", args[0])
			usage(stderr)
			return 2
		}
	}
	return runTrace(args, stdout, stderr)
}

// smallRun is the preset of every subcommand that executes a fresh
// benchmark: a run small enough that the default recorder rings hold
// all of it.
func smallRun() crest.RunSpec {
	s := crest.DefaultRun()
	s.Workload.Kind, s.Workload.Warehouses = crest.WorkloadSmallBank, 8
	s.Coordinators = 12
	s.Duration, s.Warmup = 2*time.Millisecond, 200*time.Microsecond
	s.Profile = "quick"
	return s
}

// command starts a subcommand: a flag set carrying the run-description
// flags (from the RunSpec key table, smallRun as the preset) and
// -workers. The returned parse function parses args and yields the
// configuration to run; when ok is false it has already reported the
// usage error — a bad flag, a run value RunSpec.Validate rejects, or
// not exactly nargs positional arguments — and the subcommand exits 2.
func command(name string, nargs int, stderr io.Writer) (*flag.FlagSet, func([]string) (crest.BenchmarkConfig, bool)) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	smallRun().Flags(fs, "system", "workload", "coords", "warehouses", "theta",
		"duration", "warmup", "seed", "shards", "placement")
	workers := fs.Int("workers", 1, "scheduler threads executing shard-group partitions concurrently (output is byte-identical at any count; 1 = sequential)")
	return fs, func(args []string) (crest.BenchmarkConfig, bool) {
		cfg := crest.BenchmarkConfig{RunSpec: smallRun()}
		if fs.Parse(args) != nil {
			return cfg, false
		}
		cfg.Workers = *workers
		_, err := cfg.SetFlags(fs)
		if err == nil {
			err = crest.ValidateWorkers(*workers)
		}
		if err == nil && nargs == 0 && fs.NArg() > 0 {
			err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
		}
		if err == nil && fs.NArg() != nargs {
			err = errors.New("exactly one <txnid> argument required")
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			usage(stderr)
		}
		return cfg, err == nil
	}
}

// snapshotFrom yields the snapshot a subcommand renders: read from the
// -in export with the view's reader, or picked out of a fresh run of cfg
// (the caller has switched the view on), whose one-line report goes to
// stderr.
func snapshotFrom[T any](in string, read func(io.Reader) (*T, error), cfg crest.BenchmarkConfig,
	pick func(crest.BenchmarkResult) (snap *T, report string), stderr io.Writer) (*T, int) {
	if in != "" {
		snap, err := crest.ReadFile(in, read)
		if err != nil {
			fmt.Fprintf(stderr, "cresttrace: %v\n", err)
			usage(stderr)
			return nil, 1
		}
		return snap, 0
	}
	res, err := crest.RunBenchmark(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace: %v\n", err)
		return nil, 1
	}
	snap, report := pick(res)
	fmt.Fprintf(stderr, "[%s/%s: %s, %.1f KOPS]\n", res.Spec.System, res.Workload, report, res.KOPS)
	return snap, 0
}

// whyFrom is snapshotFrom for the causality view.
func whyFrom(in string, cfg crest.BenchmarkConfig, capacity int, stderr io.Writer) (*crest.WhySnapshot, int) {
	cfg.Why, cfg.WhyCapacity = true, capacity
	return snapshotFrom(in, crest.ReadWhyJSON, cfg, func(res crest.BenchmarkResult) (*crest.WhySnapshot, string) {
		return res.Why, fmt.Sprintf("%d txns, %d edges recorded", len(res.Why.Txns), len(res.Why.Edges))
	}, stderr)
}

// flightFrom is snapshotFrom for the flight view.
func flightFrom(in string, cfg crest.BenchmarkConfig, capacity int, stderr io.Writer) (*crest.FlightSnapshot, int) {
	cfg.Flight, cfg.FlightCapacity = true, capacity
	return snapshotFrom(in, crest.ReadFlightJSON, cfg, func(res crest.BenchmarkResult) (*crest.FlightSnapshot, string) {
		return res.Flight, fmt.Sprintf("%d txns, %d exemplars recorded", len(res.Flight.Txns), len(res.Flight.Exemplars))
	}, stderr)
}

// output renders to the -o file, or to stdout when there is none.
func output(path string, stdout io.Writer, render func(io.Writer) error) error {
	if path != "" {
		return crest.WriteFile(path, render)
	}
	bw := bufio.NewWriter(stdout)
	if err := render(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// runTail prints the aggregate latency budget report: the p50/p99/
// p99.9 component decomposition, the tail-vs-median attribution, and
// the slowest exemplars' critical paths.
func runTail(args []string, stdout, stderr io.Writer) int {
	fs, parse := command("cresttrace tail", 0, stderr)
	in := fs.String("in", "", "read a crest-flight JSON export (crestbench -flight) instead of running a benchmark")
	capacity := fs.Int("txns", 0, "flight summary ring capacity (0 = default)")
	top := fs.Int("top", 5, "exemplar critical paths in the report")
	cfg, ok := parse(args)
	if !ok {
		return 2
	}
	snap, code := flightFrom(*in, cfg, *capacity, stderr)
	if code != 0 {
		return code
	}
	if err := crest.WriteFlightTail(stdout, snap, *top); err != nil {
		fmt.Fprintf(stderr, "cresttrace tail: %v\n", err)
		return 1
	}
	return 0
}

// runCritPath prints one transaction's budget decomposition, attempt
// timeline and critical path.
func runCritPath(args []string, stdout, stderr io.Writer) int {
	fs, parse := command("cresttrace critpath", 1, stderr)
	in := fs.String("in", "", "read a crest-flight JSON export (crestbench -flight) instead of running a benchmark")
	capacity := fs.Int("txns", 0, "flight summary ring capacity (0 = default)")
	cfg, ok := parse(args)
	if !ok {
		return 2
	}
	id, err := strconv.ParseUint(fs.Arg(0), 10, 64)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace critpath: bad transaction id %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}
	snap, code := flightFrom(*in, cfg, *capacity, stderr)
	if code != 0 {
		return code
	}
	if err := crest.WriteFlightCritPath(stdout, snap, id); err != nil {
		fmt.Fprintf(stderr, "cresttrace critpath: %v\n", err)
		return 1
	}
	return 0
}

// runWhy prints the blame chain for one transaction.
func runWhy(args []string, stdout, stderr io.Writer) int {
	fs, parse := command("cresttrace why", 1, stderr)
	in := fs.String("in", "", "read a crest-why JSON export instead of running a benchmark")
	capacity := fs.Int("edges", 0, "causality edge ring capacity (0 = default)")
	cfg, ok := parse(args)
	if !ok {
		return 2
	}
	id, err := strconv.ParseUint(fs.Arg(0), 10, 64)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace why: bad transaction id %q\n", fs.Arg(0))
		usage(stderr)
		return 2
	}
	snap, code := whyFrom(*in, cfg, *capacity, stderr)
	if code != 0 {
		return code
	}
	if err := crest.WriteWhyBlame(stdout, snap, id); err != nil {
		fmt.Fprintf(stderr, "cresttrace why: %v\n", err)
		return 1
	}
	return 0
}

// runGraph exports the aggregated contention dependency graph.
func runGraph(args []string, stdout, stderr io.Writer) int {
	fs, parse := command("cresttrace graph", 0, stderr)
	in := fs.String("in", "", "read a crest-why JSON export instead of running a benchmark")
	format := fs.String("format", "dot", "output: dot (Graphviz) or json (crest-why/v1)")
	out := fs.String("o", "", "output file (default stdout)")
	cfg, ok := parse(args)
	if !ok {
		return 2
	}
	if *format != "dot" && *format != "json" {
		fmt.Fprintf(stderr, "cresttrace graph: unknown format %q (dot or json)\n", *format)
		usage(stderr)
		return 2
	}
	snap, code := whyFrom(*in, cfg, 0, stderr)
	if code != 0 {
		return code
	}
	err := output(*out, stdout, func(w io.Writer) error {
		if *format == "json" {
			return crest.WriteWhyJSON(w, snap)
		}
		return crest.WriteWhyDOT(w, snap)
	})
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace graph: %v\n", err)
		return 1
	}
	return 0
}

// runWindows renders the window executor's window/barrier timeline of
// a partitioned run: per-window virtual-time spans with event and
// injection counts, plus per-partition executor counters. The timeline
// uses only schedule-derived fields, so stdout is byte-identical at any
// -workers count; the wall-clock summary goes to stderr.
func runWindows(args []string, stdout, stderr io.Writer) int {
	fs, parse := command("cresttrace windows", 0, stderr)
	in := fs.String("in", "", "read a crest-runtime JSON export (crestbench -runtime-stats) instead of running a benchmark")
	out := fs.String("o", "", "output file (default stdout)")
	cfg, ok := parse(args)
	if !ok {
		return 2
	}

	stats, code := snapshotFrom(*in, crest.ReadRuntimeStats, cfg, func(res crest.BenchmarkResult) (*crest.RuntimeStats, string) {
		return res.Runtime, fmt.Sprintf("%d events", res.Events)
	}, stderr)
	if code != 0 {
		return code
	}
	if stats == nil {
		fmt.Fprintf(stderr, "cresttrace windows: run was not partitioned (needs -shards > 1 with a partition-safe workload)\n")
		return 1
	}
	err := output(*out, stdout, func(w io.Writer) error { return crest.WriteWindowTimeline(w, stats) })
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace windows: %v\n", err)
		return 1
	}
	if stats.WallMS > 0 {
		fmt.Fprintf(stderr, "[runtime: %d workers, %.1f ms wall, %.1f ms barrier wait, occupancy %.0f%%]\n",
			stats.Workers, stats.WallMS, stats.BarrierWaitMS, 100*stats.WorkerOccupancy)
	}
	return 0
}

// runTrace is the original cresttrace behavior: run with tracing on
// and render the event stream.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs, parse := command("cresttrace", 0, stderr)
	var (
		format   = fs.String("format", "json", "output: json (Chrome trace_event), spans (text timelines), hotkeys (contention profile)")
		out      = fs.String("o", "", "output file (default stdout)")
		top      = fs.Int("top", 20, "entries in the hotkeys report")
		capacity = fs.Int("events", 0, "trace ring capacity (0 = default)")
		metOut   = fs.String("metrics", "", "also write the run's windowed metrics to this file (.csv, .json or Prometheus text by extension)")
		metWin   = fs.Duration("metrics-window", 100*time.Microsecond, "with -metrics: time-series window in virtual time")
	)
	cfg, ok := parse(args)
	if !ok {
		return 2
	}
	switch *format {
	case "json", "spans", "hotkeys":
	default:
		fmt.Fprintf(stderr, "cresttrace: unknown format %q (json, spans or hotkeys)\n", *format)
		usage(stderr)
		return 2
	}

	cfg.Trace = true
	cfg.TraceCapacity = *capacity
	cfg.Metrics = *metOut != ""
	cfg.MetricsWindow = *metWin
	res, err := crest.RunBenchmark(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace: %v\n", err)
		return 1
	}

	if *metOut != "" {
		summary, err := crest.Export(*metOut, res.Metrics)
		if err != nil {
			fmt.Fprintf(stderr, "cresttrace: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, summary)
	}

	snap := res.Trace
	err = output(*out, stdout, func(w io.Writer) error {
		switch *format {
		case "spans":
			return crest.WriteSpanSummary(w, snap)
		case "hotkeys":
			return crest.WriteHotKeys(w, snap, *top)
		}
		return crest.WriteChromeTrace(w, snap)
	})
	if err != nil {
		fmt.Fprintf(stderr, "cresttrace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "[%s/%s: %d events, %d dropped, %.1f KOPS in the traced window]\n",
		res.Spec.System, res.Workload, len(snap.Events), snap.Dropped, res.KOPS)
	return 0
}
