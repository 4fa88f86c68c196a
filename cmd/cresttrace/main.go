// Command cresttrace renders the exports a `crestbench -run` writes:
// it reads a file and runs nothing. Every subcommand takes the export
// with -in.
//
// Explain why a transaction aborted (blame chain with per-hop virtual
// wait durations) from a crest-why JSON export:
//
//	crestbench -run -workload smallbank -theta 0.99 -why why.json
//	cresttrace why -in why.json 412
//
// Render the aggregated contention dependency graph (hotspots and
// wait cycles) as Graphviz DOT:
//
//	cresttrace graph -in why.json > why.dot
//
// Render the window executor's window/barrier timeline of a
// partitioned run from a crest-runtime export:
//
//	crestbench -run -workload smallbank -shards 4 -workers 4 -runtime-stats runtime.json
//	cresttrace windows -in runtime.json
//
// Decompose tail latency into an additive per-component budget (wire,
// lock-wait, backoff, queueing, per-phase compute) and walk one
// outlier's critical path across its retries, from a crest-flight
// export:
//
//	crestbench -run -workload smallbank -theta 0.99 -flight flight.json
//	cresttrace tail -in flight.json -top 10
//	cresttrace critpath -in flight.json 412
//
// The event trace needs no reader: `crestbench -run -trace f` writes
// Chrome trace JSON or per-transaction span timelines (f.spans)
// directly. Which cells are contended is the graph's hotspot ranking:
// its DOT comments list the top 10.
//
// Every subcommand writes to stdout. Output is deterministic: an export
// of the same seed and configuration renders byte-identical blame
// chains, graphs and timelines, whatever -workers count the run used.
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

	"crest"
)

func main() {
	stdout := bufio.NewWriter(os.Stdout)
	code := run(os.Args[1:], stdout, os.Stderr)
	if err := stdout.Flush(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "cresttrace: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

const usageText = `usage: cresttrace why -in f <txnid>        explain one transaction's abort
       cresttrace graph -in f              render the contention graph as Graphviz DOT
       cresttrace windows -in f            render the window executor timeline (partitioned runs)
       cresttrace tail -in f [flags]       decompose tail latency into per-component budgets
       cresttrace critpath -in f <txnid>   walk one transaction's critical path across retries

f is an export of crestbench -run: -why f.json for why and graph,
-runtime-stats f for windows, -flight f.json for tail and critpath.
Run 'cresttrace <subcommand> -h' for the subcommand's flags.
`

// The exports the subcommands read, as their -in usage names them.
const (
	whyExport    = "crest-why JSON export (crestbench -run -why f.json)"
	flightExport = "crest-flight JSON export (crestbench -run -flight f.json)"
)

func usage(stderr io.Writer) {
	fmt.Fprint(stderr, usageText)
}

// run dispatches the subcommand and returns the process exit code. It
// is the unit-testable seam: main only binds it to os streams.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		usage(stderr)
		return 2
	}
	switch args[0] {
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
	}
	fmt.Fprintf(stderr, "cresttrace: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

// command starts a subcommand that renders the export named by its
// required -in flag, an export of the kind export describes, read with
// read; txn says the subcommand takes a <txnid> argument, and checks
// validate its other flags once they are parsed. The returned parse
// function parses args and yields the export and the id; when the exit
// code is not 0 it has already reported why, with usage: a bad flag,
// argument or missing -in (2), or an unreadable export (1).
func command[T any](name, export string, txn bool, read func(io.Reader) (*T, error), stderr io.Writer, checks ...func() error) (*flag.FlagSet, func([]string) (*T, uint64, int)) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "the "+export+" to read (required)")
	return fs, func(args []string) (*T, uint64, int) {
		if fs.Parse(args) != nil {
			return nil, 0, 2
		}
		var (
			id  uint64
			err error
		)
		switch {
		case *in == "":
			err = errors.New("-in is required")
		case !txn && fs.NArg() > 0:
			err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
		case txn && fs.NArg() != 1:
			err = errors.New("exactly one <txnid> argument required")
		case txn:
			if id, err = strconv.ParseUint(fs.Arg(0), 10, 64); err != nil {
				err = fmt.Errorf("bad transaction id %q", fs.Arg(0))
			}
		}
		for _, check := range checks {
			if err == nil {
				err = check()
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			usage(stderr)
			return nil, 0, 2
		}
		snap, err := crest.ReadFile(*in, read)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			usage(stderr)
			return nil, 0, 1
		}
		return snap, id, 0
	}
}

// runTail prints the aggregate latency budget report: the p50/p99/
// p99.9 component decomposition, the tail-vs-median attribution, and
// the slowest exemplars' critical paths.
func runTail(args []string, stdout, stderr io.Writer) int {
	var top *int
	fs, parse := command("cresttrace tail", flightExport, false, crest.ReadFlightJSON, stderr, func() error {
		if *top < 1 {
			return fmt.Errorf("-top must be >= 1 (got %d)", *top)
		}
		return nil
	})
	top = fs.Int("top", 5, "exemplar critical paths in the report")
	snap, _, code := parse(args)
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
	_, parse := command("cresttrace critpath", flightExport, true, crest.ReadFlightJSON, stderr)
	snap, id, code := parse(args)
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
	_, parse := command("cresttrace why", whyExport, true, crest.ReadWhyJSON, stderr)
	snap, id, code := parse(args)
	if code != 0 {
		return code
	}
	if err := crest.WriteWhyBlame(stdout, snap, id); err != nil {
		fmt.Fprintf(stderr, "cresttrace why: %v\n", err)
		return 1
	}
	return 0
}

// runGraph renders the aggregated contention dependency graph as
// Graphviz DOT.
func runGraph(args []string, stdout, stderr io.Writer) int {
	_, parse := command("cresttrace graph", whyExport, false, crest.ReadWhyJSON, stderr)
	snap, _, code := parse(args)
	if code != 0 {
		return code
	}
	if err := crest.WriteWhyDOT(stdout, snap); err != nil {
		fmt.Fprintf(stderr, "cresttrace graph: %v\n", err)
		return 1
	}
	return 0
}

// runWindows renders the window executor's window/barrier timeline of
// a partitioned run: per-window virtual-time spans with event and
// injection counts, plus per-partition executor counters. The timeline
// uses only schedule-derived fields, so stdout is byte-identical for an
// export at any -workers count; the export's wall-clock summary goes to
// stderr.
func runWindows(args []string, stdout, stderr io.Writer) int {
	_, parse := command("cresttrace windows", "crest-runtime JSON export (crestbench -run -runtime-stats f)", false, crest.ReadRuntimeStats, stderr)
	stats, _, code := parse(args)
	if code != 0 {
		return code
	}
	if err := crest.WriteWindowTimeline(stdout, stats); err != nil {
		fmt.Fprintf(stderr, "cresttrace windows: %v\n", err)
		return 1
	}
	if stats.WallMS > 0 {
		fmt.Fprintf(stderr, "[runtime: %d workers, %.1f ms wall, %.1f ms barrier wait, occupancy %.0f%%]\n",
			stats.Workers, stats.WallMS, stats.BarrierWaitMS, 100*stats.WorkerOccupancy)
	}
	return 0
}
