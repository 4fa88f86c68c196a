package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digestCase is one pinned CLI invocation: its stdout (or, for -h, its
// stderr) and every export file it writes are sha256-digested and
// compared to cliDigests. "$T" in an argument expands to a per-case
// temporary directory.
type digestCase struct {
	name  string
	args  string
	files []string // export files under $T, digested as "<name> <file>"
	help  bool     // -h: digest stderr, expect exit code 2
}

// digestCases lists every distinct -run invocation shape of ci.yml,
// .github/determinism.sh, README.md and EXPERIMENTS.md, scaled down
// with -quick / -coords / -duration where the documented size would
// make the test slow; plus -list and the -h text.
func digestCases() []digestCase {
	var cases []digestCase
	// Each engine × workload at the flag defaults (warehouses, theta,
	// writes, n), on a small topology.
	for _, sys := range []string{"crest", "crest-cell", "crest-base", "ford", "motor"} {
		for _, wl := range []string{"tpcc", "smallbank", "ycsb"} {
			cases = append(cases, digestCase{name: "grid/" + sys + "/" + wl,
				args: "-run -quick -system " + sys + " -workload " + wl + " -coords 24 -duration 2ms -warmup 500us"})
		}
	}
	return append(cases,
		// Every flag at its default except the table scale.
		digestCase{name: "defaults/motor-ycsb", args: "-run -quick -system motor -workload ycsb"},
		digestCase{name: "defaults/ford-smallbank", args: "-run -quick -system ford -workload smallbank"},
		digestCase{name: "defaults/ford-tpcc", args: "-run -quick -system ford -coords 12 -duration 5ms"},
		// README: -run -system crest -workload ycsb -theta 0.99 -coords 240.
		digestCase{name: "readme/ycsb-240", args: "-run -quick -system crest -workload ycsb -theta 0.99 -coords 240 -duration 5ms"},
		// ci.yml big-smoke / EXPERIMENTS.md: -run -big -duration 4ms -warmup 1ms -workers N.
		digestCase{name: "big/scaled", args: "-run -big -quick -duration 1200us -warmup 400us -workers 2"},
		digestCase{name: "big/coords", args: "-run -big -quick -coords 64 -duration 2ms -warmup 500us"},
		// ci.yml scenario-smoke; stdout is also byte-compared to the
		// committed golden.
		digestCase{name: "spec/drift-demo", files: []string{"ts.csv"},
			args: "-run -spec ../../examples/scenarios/drift-demo.spec -quick -coords 24 -duration 6ms -warmup 1ms -metrics $T/ts.csv"},
		// .github/determinism.sh: sharded SmallBank with all four
		// observers (the runtime-stats export carries wall-clock fields
		// and is not digested).
		digestCase{name: "observers/all", files: []string{"t.json", "m.csv", "w.json", "f.json"},
			args: "-run -quick -system crest -workload smallbank -theta 0.99 -shards 4 -placement modulo -coords 48 " +
				"-duration 3ms -warmup 1ms -workers 2 -trace $T/t.json -metrics $T/m.csv -why $T/w.json -flight $T/f.json -runtime-stats $T/r.json"},
		// ci.yml bench-quick / EXPERIMENTS.md metrics time-series.
		digestCase{name: "metrics/csv", files: []string{"out.csv"},
			args: "-run -quick -system crest -workload ycsb -theta 0.99 -coords 24 -duration 5ms -warmup 1ms -metrics $T/out.csv -metrics-window 100us"},
		digestCase{name: "metrics/json", files: []string{"out.json"},
			args: "-run -quick -workload ycsb -theta 0.99 -coords 24 -duration 3ms -warmup 1ms -metrics $T/out.json -metrics-window 200us"},
		// README / EXPERIMENTS.md forensics: -why .json and .dot, -flight
		// .json and the rendered report.
		digestCase{name: "why/json", files: []string{"why.json"},
			args: "-run -quick -workload smallbank -theta 0.99 -coords 120 -duration 3ms -warmup 1ms -why $T/why.json"},
		digestCase{name: "why/dot", files: []string{"why.dot"},
			args: "-run -quick -workload smallbank -theta 0.99 -coords 120 -duration 3ms -warmup 1ms -why $T/why.dot"},
		digestCase{name: "flight/json", files: []string{"flight.json"},
			args: "-run -quick -workload smallbank -theta 0.99 -duration 6ms -flight $T/flight.json"},
		digestCase{name: "flight/report", files: []string{"flight.txt"},
			args: "-run -quick -workload smallbank -theta 0.99 -duration 6ms -flight $T/flight.txt"},
		// EXPERIMENTS.md crossover cell and hotspot seed export.
		digestCase{name: "crossover/cell",
			args: "-run -quick -system crest -workload ycsb -theta 1.22 -writes 0.5 -n 4 -coords 120 -duration 5ms -warmup 1ms -shards 4 -placement modulo"},
		digestCase{name: "crossover/why", files: []string{"hot.json"},
			args: "-run -quick -theta 1.22 -shards 4 -placement modulo -coords 12 -duration 5ms -why $T/hot.json"},
		digestCase{name: "crossover/hotspot",
			args: "-run -quick -workload smallbank -shards 4 -placement hotspot -coords 24 -duration 3ms -warmup 1ms"},
		// EXPERIMENTS.md: any sharded topology, -workers N; a non-default seed.
		digestCase{name: "sharded/workers", args: "-run -quick -workload smallbank -shards 4 -placement modulo -coords 240 -duration 3ms -warmup 1ms -workers 4"},
		digestCase{name: "seed", args: "-run -quick -workload smallbank -coords 24 -duration 2ms -warmup 500us -seed 7"},
		digestCase{name: "list", args: "-list"},
		digestCase{name: "help", args: "-h", help: true},
	)
}

// cliDigests pins the cases above. Generated at the commit before the
// RunSpec key table replaced the hand-written flag plumbing; a refactor
// of that plumbing must not edit it.
var cliDigests = map[string]string{
	"grid/crest/tpcc":           "300da91fc6ec4b36",
	"grid/crest/smallbank":      "b43eb08eb097b654",
	"grid/crest/ycsb":           "e92cc8a17d4e7b33",
	"grid/crest-cell/tpcc":      "0264a97ebbb47e61",
	"grid/crest-cell/smallbank": "c2f4bbe57bda3621",
	"grid/crest-cell/ycsb":      "80caaf15463a6efc",
	"grid/crest-base/tpcc":      "40c87b5ecfd2588f",
	"grid/crest-base/smallbank": "0c6a488067f54a7e",
	"grid/crest-base/ycsb":      "08e856c361681c82",
	"grid/ford/tpcc":            "a8614f0e14aedfe0",
	"grid/ford/smallbank":       "494a5651c0c069bc",
	"grid/ford/ycsb":            "192f1edb5c75e359",
	"grid/motor/tpcc":           "c4261c692b508059",
	"grid/motor/smallbank":      "3a3152f52aed9825",
	"grid/motor/ycsb":           "f1c05da68c2d2dc4",
	"defaults/motor-ycsb":       "133e706f8d8fd921",
	"defaults/ford-smallbank":   "03ad3a888f93293c",
	"defaults/ford-tpcc":        "33feb90a28f5413f",
	"readme/ycsb-240":           "c2a5716b60328797",
	"big/scaled":                "14cd09059c5bed69",
	"big/coords":                "5e233fa0727654b6",
	"spec/drift-demo":           "ef345e0eb9492241",
	"spec/drift-demo ts.csv":    "0b9c4ea47b7548a1",
	"observers/all":             "9321b2993642f611",
	"observers/all t.json":      "d51732ed03bcf396",
	"observers/all m.csv":       "77ffa97479d7330b",
	"observers/all w.json":      "edbc4e5d6d42bb3c",
	"observers/all f.json":      "03c46cf6cdf26d2f",
	"metrics/csv":               "fc62f3600bc732c0",
	"metrics/csv out.csv":       "529c01e27161f847",
	"metrics/json":              "59acb60baa9ce976",
	"metrics/json out.json":     "cde57578ea12e639",
	"why/json":                  "c92b28e126f79c52",
	"why/json why.json":         "cbbeca87a34bd818",
	"why/dot":                   "c92b28e126f79c52",
	"why/dot why.dot":           "c7f1619a02f6f35d",
	"flight/json":               "22a08cb46e8e54a6",
	"flight/json flight.json":   "987a152deb5793e0",
	"flight/report":             "22a08cb46e8e54a6",
	"flight/report flight.txt":  "e853564eb4f47058",
	"crossover/cell":            "a1709a63525bdc71",
	"crossover/why":             "2950ac7eae44fe9b",
	"crossover/why hot.json":    "174858cf1a348743",
	"crossover/hotspot":         "c62d0b0d1ff0c30e",
	"sharded/workers":           "f08eaefb1ee4ae25",
	"seed":                      "5ae127c49976069e",
	"list":                      "712d0647287aec7f",
	"help":                      "650378de1ef38236",
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func TestCLIDigests(t *testing.T) {
	for _, tc := range digestCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, stdout, stderr := dispatch(strings.Fields(strings.ReplaceAll(tc.args, "$T", dir))...)
			got := map[string]string{tc.name: digest([]byte(stdout))}
			if tc.help {
				if code != 2 {
					t.Fatalf("exit code %d, want 2", code)
				}
				got[tc.name] = digest([]byte(stderr))
			} else if code != 0 {
				t.Fatalf("exit code %d\n%s", code, stderr)
			}
			for _, f := range tc.files {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				got[tc.name+" "+f] = digest(data)
			}
			for k, g := range got {
				if cliDigests[k] != g {
					t.Errorf("digest drifted:\n\t%q: %q, (pinned %q)", k, g, cliDigests[k])
				}
			}
			if tc.name == "spec/drift-demo" {
				golden, err := os.ReadFile("../../examples/scenarios/drift-demo.quick.golden")
				if err != nil {
					t.Fatal(err)
				}
				if stdout != string(golden) {
					t.Errorf("stdout differs from drift-demo.quick.golden:\n%s", stdout)
				}
			}
		})
	}
}
