// Command crestperf is the repository's two-clock benchmark: six named
// workloads, ten end-to-end metrics each (simulated clock and host
// clock), a correctness pass, and a traced pass that attributes host
// cost to every layer. See ../README.md.
//
//	crestperf                         all workloads, both passes, crest-perf/v1 JSON on stdout
//	crestperf -smoke                  one short rep each, no traced pass
//	crestperf -verify-repeat -trace 0 measure twice, PASS/FAIL per metric against its bound
//	crestperf --workload W --seed N --seconds S --trace 0|1
//	                                  the BENCHMARK.json contract: one result object as the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crestperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload and print the contract's result object as the last line of stdout")
		seed     = fs.Int64("seed", 1, "the only workload input (seed 2 is held out for later claims)")
		seconds  = fs.Float64("seconds", nominalSeconds, "host seconds a workload's measured reps are sized for; scales the rep count")
		trace    = fs.Int("trace", -1, "0: measured pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); -1: both")
		reps     = fs.Int("reps", 0, "measured reps per workload (0: the workload's own count, scaled by -seconds)")
		check    = fs.Bool("check", true, "run the correctness pass before each workload's measured reps")
		repeat   = fs.Bool("verify-repeat", false, "measure every workload twice and compare the medians against the bounds")
		smoke    = fs.Bool("smoke", false, "one rep of 2 ms measured virtual time per workload, no traced pass")
		jsonOut  = fs.String("json", "", "write the crest-perf/v1 document here (default: stdout, or nowhere with -workload)")
		spansOut = fs.String("spans", "", "write the driver's own spans here as Chrome-trace JSON")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as this binary defines it, and exit")
		child    = fs.String("child", "", "internal: run one rep described by this JSON and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return runChild(*child, stdout, stderr)
	}
	if *manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "crestperf:", err)
			return 1
		}
		return 0
	}

	defs := workloads
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			fmt.Fprintf(stderr, "crestperf: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{*def}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "crestperf:", err)
		return 1
	}
	r := &runner{exe: exe, tmp: filepath.Dir(exe), seed: *seed, spans: newSpanLog(), log: stderr}
	doc := &document{Schema: schemaVersion, Host: thisHost(), Seed: *seed}

	virtualMS := 0.0
	if *smoke {
		*reps, virtualMS, *trace = 1, smokeVirtualMS, 0
	}
	// measure runs def's measured reps into a fresh report.
	measure := func(def *workloadDef) workloadReport {
		rep := workloadReport{Name: def.Name, Why: def.Why, VirtualMS: def.VirtualMS, Reps: *reps}
		if rep.Reps == 0 {
			rep.Reps = max(1, int(math.Round(float64(def.Reps)**seconds/nominalSeconds)))
		}
		if virtualMS > 0 {
			rep.VirtualMS = virtualMS
		}
		results := r.measure(def, rep.Reps, virtualMS)
		if len(results) < rep.Reps {
			return rep // the failures are on the books already
		}
		rep.EndToEnd = aggregate(results)
		rep.SimFingerprint = combinedFingerprint(results)
		rep.rep0LoopRate = results[0].loopRate()
		for _, res := range results {
			rep.Commits += res.Committed
			rep.Events += res.Events
			rep.HostS += res.SetupS + res.LoopS
		}
		return rep
	}

	// The micro-drivers go first: memnode's needs a heap that nothing in
	// this process has grown yet.
	global := map[string]float64{}
	if *trace != 0 {
		runMicros(r.spans, global)
	}

	for i := range defs {
		def := &defs[i]
		end := r.spans.begin("workload." + def.Name)
		rep := workloadReport{Name: def.Name, Why: def.Why, VirtualMS: def.VirtualMS}
		if *trace != 1 {
			if *check {
				r.check(def)
			}
			rep = measure(def)
		}
		if *trace != 0 {
			res, vals, err := r.traced(def)
			if err != nil {
				r.fail("%s: traced run: %v", def.Name, err)
			} else {
				rep.PerLayer = pickValues(perLayerDefs(), vals)
				if rep.rep0LoopRate > 0 {
					over := 100 * (rep.rep0LoopRate/res.loopRate() - 1)
					rep.TracingOverheadPct = &over
				}
			}
		}
		end()
		doc.Workloads = append(doc.Workloads, rep)
	}

	if *trace != 0 {
		if err := r.sideRuns(global); err != nil {
			r.fail("side runs: %v", err)
		}
		doc.Global = pickValues(perLayerDefs(), global)
	}

	if *repeat && *trace != 1 {
		for i := range defs {
			doc.VerifyRepeat = append(doc.VerifyRepeat, r.compareRepeat(doc.Workloads[i], measure(&defs[i]))...)
		}
	}

	doc.OpsAttempted, doc.OpsFailed, doc.Failures = r.attempted, len(r.failures), r.failures
	doc.writeTable(stderr)
	if *spansOut != "" {
		if err := writeFile(*spansOut, r.spans.writeChrome); err != nil {
			fmt.Fprintln(stderr, "crestperf:", err)
			return 1
		}
	}
	switch {
	case *jsonOut != "":
		err = writeFile(*jsonOut, doc.encode)
	case *workload == "":
		err = doc.encode(stdout)
	}
	if err == nil && *workload != "" {
		line := doc.contractLine(*trace == 1)
		want := len(endToEnd)
		if *trace == 1 {
			want = len(perLayerDefs())
		}
		if len(line.Metrics) != want && doc.OpsFailed == 0 {
			err = fmt.Errorf("have %d metrics to print, the contract lists %d", len(line.Metrics), want)
		} else {
			err = json.NewEncoder(stdout).Encode(line)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "crestperf:", err)
		return 1
	}
	if doc.OpsFailed > 0 {
		return 1
	}
	return 0
}

func runChild(arg string, stdout, stderr io.Writer) int {
	var spec repSpec
	if err := json.NewDecoder(strings.NewReader(arg)).Decode(&spec); err != nil {
		fmt.Fprintln(stderr, "crestperf: -child:", err)
		return 2
	}
	res, err := runRep(spec)
	if err != nil {
		fmt.Fprintln(stderr, "crestperf:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "crestperf:", err)
		return 1
	}
	return 0
}

// writeFile creates path, lets write fill it and reports the first
// error of the three steps.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
