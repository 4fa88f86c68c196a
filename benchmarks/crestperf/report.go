package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// schemaVersion identifies the JSON document -json writes.
const schemaVersion = "crest-perf/v1"

// hostInfo is what a reader needs to compare two documents' host-clock
// numbers: host time only means something on a like host.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    defaultWorkers(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// Best effort: a checkout that is not a git repository has no commit.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// metricValue is one metric as the document lists it: its definition
// beside its value, quartiles and sample count.
type metricValue struct {
	metricDef
	stat
}

// workloadReport is one workload's section of the document.
type workloadReport struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	VirtualMS float64 `json:"virtual_ms"`
	Reps      int     `json:"reps"`
	// SimFingerprint hashes every rep's simulated outputs (committed,
	// aborted, events, verbs, latency percentiles): a simulator-only
	// change must leave it as it was.
	SimFingerprint string        `json:"sim_fingerprint,omitempty"`
	Commits        uint64        `json:"commits,omitempty"`
	Events         uint64        `json:"events,omitempty"`
	HostS          float64       `json:"host_s,omitempty"`
	EndToEnd       []metricValue `json:"end_to_end,omitempty"`
	PerLayer       []metricValue `json:"per_layer,omitempty"`
	// TracingOverheadPct is how much longer the traced rep's event loop
	// took per event than that of the measured rep on the same sub-seed
	// (rep 0), when both passes ran.
	TracingOverheadPct *float64 `json:"tracing_overhead_pct,omitempty"`
	rep0LoopRate       float64
}

// repeatRow is one line of -verify-repeat: two medians of the same
// code and whether the second is within the metric's bound of the first.
type repeatRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	WorseBy  float64 `json:"worse_by"`
	Bound    float64 `json:"bound"`
	Pass     bool    `json:"pass"`
}

// document is the crest-perf/v1 output: every metric by name with
// unit, value, direction, bound, sample count and quartiles, plus host
// metadata and fingerprints.
type document struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Workloads []workloadReport `json:"workloads"`
	// Global holds the per-layer metrics that do not depend on the
	// workload: micro-driver timings and the side runs.
	Global       []metricValue `json:"global,omitempty"`
	VerifyRepeat []repeatRow   `json:"verify_repeat,omitempty"`
	OpsAttempted int           `json:"ops_attempted"`
	OpsFailed    int           `json:"ops_failed"`
	Failures     []string      `json:"failures,omitempty"`
}

func (d *document) encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// aggregate reduces a workload's reps to the ten end-to-end metrics.
func aggregate(reps []*repResult) []metricValue {
	out := make([]metricValue, len(endToEnd))
	for i, m := range endToEnd {
		samples := make([]float64, len(reps))
		for j, r := range reps {
			samples[j] = m.of(r)
		}
		out[i] = metricValue{m.metricDef, summarize(samples, m.exact)}
	}
	return out
}

// pickValues lists the defs that vals has a value for, in def order.
func pickValues(defs []metricDef, vals map[string]float64) []metricValue {
	var out []metricValue
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			out = append(out, metricValue{d, single(v)})
		}
	}
	return out
}

// contractLine is the benchmark contract's result object: the last
// line of standard output when one workload was asked for.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (d *document) contractLine(perLayer bool) contractLine {
	line := contractLine{
		Correct:   d.OpsFailed == 0,
		Attempted: d.OpsAttempted,
		Failed:    d.OpsFailed,
		Metrics:   map[string]contractValue{},
	}
	add := func(vs []metricValue) {
		for _, v := range vs {
			line.Metrics[v.Name] = contractValue{v.Value, v.Unit}
		}
	}
	for _, w := range d.Workloads {
		if perLayer {
			add(w.PerLayer)
		} else {
			add(w.EndToEnd)
		}
	}
	if perLayer {
		add(d.Global)
	}
	return line
}

// writeTable renders the document for a person.
func (d *document) writeTable(w io.Writer) {
	h := d.Host
	fmt.Fprintf(w, "%s  seed %d  host: %d cores, GOMAXPROCS %d, workers %d, %s, commit %s\n",
		d.Schema, d.Seed, h.NumCPU, h.GOMAXPROCS, h.Workers, h.GoVersion, h.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(v metricValue) {
		bound := ""
		if v.Bound > 0 {
			bound = fmt.Sprintf("%g%%", 100*v.Bound)
		}
		spread := ""
		if v.N > 1 {
			spread = fmt.Sprintf("[%.5g .. %.5g] n=%d", v.Q1, v.Q3, v.N)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\t%s\n", v.Name, v.Value, v.Unit, spread, v.Better, bound)
	}
	for _, wl := range d.Workloads {
		fmt.Fprintf(tw, "\n%s\t(%g ms virtual x %d reps)\t\t\t\t\n", wl.Name, wl.VirtualMS, wl.Reps)
		if wl.SimFingerprint != "" {
			fmt.Fprintf(tw, "  sim_fingerprint\t%s\t\t%d commits, %d events, %.1f host s\t\t\n",
				wl.SimFingerprint, wl.Commits, wl.Events, wl.HostS)
		}
		for _, v := range wl.EndToEnd {
			row(v)
		}
		if wl.TracingOverheadPct != nil {
			fmt.Fprintf(tw, "  tracing_overhead_pct\t%.3g\t%%\t\t\t\n", *wl.TracingOverheadPct)
		}
		for _, v := range wl.PerLayer {
			row(v)
		}
	}
	if len(d.Global) > 0 {
		fmt.Fprintf(tw, "\nglobal\t(micro-drivers and side runs)\t\t\t\t\n")
		for _, v := range d.Global {
			row(v)
		}
	}
	tw.Flush()
	if len(d.VerifyRepeat) > 0 {
		fmt.Fprintln(w, "\nverify-repeat: two sets of measured runs of the same code")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  workload\tmetric\tfirst\tsecond\tworse by\tbound\t")
		for _, r := range d.VerifyRepeat {
			verdict := "PASS"
			if !r.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%+.2f%%\t%g%%\t%s\n",
				r.Workload, r.Metric, r.First, r.Second, 100*r.WorseBy, 100*r.Bound, verdict)
		}
		tw.Flush()
	}
	fmt.Fprintf(w, "\nops_failed / ops_attempted: %d / %d\n", d.OpsFailed, d.OpsAttempted)
	for _, f := range d.Failures {
		fmt.Fprintln(w, "  FAIL:", f)
	}
}
