package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crest"
)

// digestCase is one pinned CLI invocation: its stdout (or, for -h, its
// stderr) and every export file it writes are sha256-digested and
// compared to cliDigests. In an argument "$T" expands to a per-case
// temporary directory and "$WHY", "$FLIGHT", "$RT" to the crest-why,
// crest-flight and crest-runtime fixture exports.
type digestCase struct {
	name  string
	args  string
	files []string // export files under $T, digested as "<name> <file>"
	help  bool     // -h: digest stderr, expect exit code 2
}

// digestCases lists every subcommand fresh and from an export (-in),
// in the invocation shapes of ci.yml, .github/determinism.sh, README.md
// and EXPERIMENTS.md, plus each command's -h text.
var digestCases = []digestCase{
	{name: "trace/json", files: []string{"trace.json"},
		args: "-system crest -workload smallbank -format json -o $T/trace.json"},
	{name: "trace/spans", args: "-system ford -workload smallbank -format spans"},
	{name: "trace/hotkeys", args: "-workload ycsb -theta 0.99 -format hotkeys"},
	{name: "trace/hotkeys-top", args: "trace -system motor -workload ycsb -theta 0.99 -format hotkeys -top 10 -seed 3"},
	{name: "trace/tpcc", args: "-workload tpcc -format spans -duration 1ms"},
	{name: "trace/metrics", files: []string{"m.csv"},
		args: "trace -workload smallbank -format hotkeys -coords 24 -shards 2 -placement modulo -workers 2 -events 4096 -metrics $T/m.csv -metrics-window 200us"},
	{name: "why/fresh", args: "why -workload smallbank -theta 0.99 41"},
	{name: "why/in", args: "why -in $WHY 412"},
	{name: "graph/fresh-dot", files: []string{"why.dot"}, args: "graph -workload smallbank -theta 0.99 -o $T/why.dot"},
	{name: "graph/fresh-json", args: "graph -workload ycsb -theta 0.99 -format json"},
	{name: "graph/in-dot", files: []string{"why.dot"}, args: "graph -in $WHY -o $T/why.dot"},
	{name: "graph/in-json", args: "graph -in $WHY -format json"},
	{name: "windows/fresh", args: "windows -workload smallbank -shards 4 -workers 4"},
	{name: "windows/in", args: "windows -in $RT"},
	{name: "tail/fresh", args: "tail -workload smallbank -theta 0.99"},
	{name: "tail/in", args: "tail -in $FLIGHT -top 5"},
	{name: "critpath/fresh", args: "critpath -workload smallbank -theta 0.99 2095"},
	{name: "critpath/in", args: "critpath -in $FLIGHT 9"},
	{name: "help/trace", args: "-h", help: true},
	{name: "help/trace-explicit", args: "trace -h", help: true},
	{name: "help/why", args: "why -h", help: true},
	{name: "help/graph", args: "graph -h", help: true},
	{name: "help/windows", args: "windows -h", help: true},
	{name: "help/tail", args: "tail -h", help: true},
	{name: "help/critpath", args: "critpath -h", help: true},
}

// cliDigests pins the cases above. Generated at the commit before the
// RunSpec key table replaced benchFlags; a refactor of that plumbing
// must not edit it.
var cliDigests = map[string]string{
	"trace/json":              "e3b0c44298fc1c14",
	"trace/json trace.json":   "2d7726c6d5f5096f",
	"trace/spans":             "3556a4ad8cec7938",
	"trace/hotkeys":           "f12052c622781393",
	"trace/hotkeys-top":       "0e5c4ec4676e6527",
	"trace/tpcc":              "e80ba5e021a1c0db",
	"trace/metrics m.csv":     "aad671af140178c7",
	"trace/metrics":           "504197591d2ee243",
	"why/fresh":               "6c6c896f13782fa7",
	"why/in":                  "ba1e486a4dffc836",
	"graph/fresh-dot":         "e3b0c44298fc1c14",
	"graph/fresh-dot why.dot": "5dd8c89afc03d08c",
	"graph/fresh-json":        "1fe53a0bb86c19a4",
	"graph/in-dot":            "e3b0c44298fc1c14",
	"graph/in-dot why.dot":    "e87e11ae0caf49f4",
	"graph/in-json":           "c10a9a1baff52072",
	"windows/fresh":           "cc51fcca2e0655ab",
	"windows/in":              "bf1b4f07eef76f90",
	"tail/fresh":              "17107e7e6d9c3266",
	"tail/in":                 "ae2f80a88640f2ca",
	"critpath/fresh":          "c21526e8fdd6194d",
	"critpath/in":             "c1aaf9802cfb9175",
	"help/trace":              "329c532555f28558",
	"help/trace-explicit":     "329c532555f28558",
	"help/why":                "a6447b6586d6a780",
	"help/graph":              "e32cbd2e4557a108",
	"help/windows":            "cf76b75224becd5e",
	"help/tail":               "15ca802c176352b2",
	"help/critpath":           "2a422e6cfd95bda7",
}

// runtimeFixture writes a crest-runtime JSON export of a two-partition
// run with a three-window log.
func runtimeFixture(t *testing.T) string {
	t.Helper()
	stats := &crest.RuntimeStats{
		Schema: crest.RuntimeSchemaVersion, Parts: 2, Workers: 2,
		LookaheadNs: 1000, Windows: 3, WindowWidthAvgNs: 900, WindowWidthMinNs: 700, WindowWidthMaxNs: 1000,
		Events: 60, WallMS: 1.5, BarrierWaitMS: 0.2,
		Partitions: []crest.PartitionRuntime{
			{Partition: 0, Events: 35, Injected: 4, Sent: 5, MailboxHWM: 2, CrossVerbs: 5},
			{Partition: 1, Events: 25, Injected: 5, Sent: 4, MailboxHWM: 3, CrossVerbs: 4},
		},
		WindowLog: []crest.WindowSlice{
			{StartNs: 0, EndNs: 1000, Events: 30, Injected: 0},
			{StartNs: 1000, EndNs: 2000, Events: 20, Injected: 6},
			{StartNs: 2000, EndNs: 2700, Events: 10, Injected: 3},
		},
		WindowLogDropped: 1,
	}
	path := filepath.Join(t.TempDir(), "runtime.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := crest.WriteRuntimeStats(f, stats); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func TestCLIDigests(t *testing.T) {
	for _, tc := range digestCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := strings.NewReplacer("$T", dir, "$WHY", whyFixture(t),
				"$FLIGHT", flightFixture(t), "$RT", runtimeFixture(t)).Replace(tc.args)
			code, stdout, stderr := dispatch(strings.Fields(args)...)
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
		})
	}
}
