package main

import (
	"io"
	"testing"

	"crest"
	"crest/internal/pin"
)

// cliCases lists every subcommand fresh and from an export (-in),
// in the invocation shapes of ci.yml, .github/determinism.sh, README.md
// and EXPERIMENTS.md, plus each command's -h text.
var cliCases = []pin.Case{
	{Name: "trace/json", Files: []string{"trace.json"},
		Args: "-system crest -workload smallbank -format json -o $T/trace.json"},
	{Name: "trace/spans", Args: "-system ford -workload smallbank -format spans"},
	{Name: "trace/hotkeys", Args: "-workload ycsb -theta 0.99 -format hotkeys"},
	{Name: "trace/hotkeys-top", Args: "trace -system motor -workload ycsb -theta 0.99 -format hotkeys -top 10 -seed 3"},
	{Name: "trace/tpcc", Args: "-workload tpcc -format spans -duration 1ms"},
	{Name: "trace/metrics", Files: []string{"m.csv"},
		Args: "trace -workload smallbank -format hotkeys -coords 24 -shards 2 -placement modulo -workers 2 -events 4096 -metrics $T/m.csv -metrics-window 200us"},
	{Name: "why/fresh", Args: "why -workload smallbank -theta 0.99 41"},
	{Name: "why/in", Args: "why -in $WHY 412"},
	{Name: "graph/fresh-dot", Files: []string{"why.dot"}, Args: "graph -workload smallbank -theta 0.99 -o $T/why.dot"},
	{Name: "graph/fresh-json", Args: "graph -workload ycsb -theta 0.99 -format json"},
	{Name: "graph/in-dot", Files: []string{"why.dot"}, Args: "graph -in $WHY -o $T/why.dot"},
	{Name: "graph/in-json", Args: "graph -in $WHY -format json"},
	{Name: "windows/fresh", Args: "windows -workload smallbank -shards 4 -workers 4"},
	{Name: "windows/in", Args: "windows -in $RT"},
	{Name: "tail/fresh", Args: "tail -workload smallbank -theta 0.99"},
	{Name: "tail/in", Args: "tail -in $FLIGHT -top 5"},
	{Name: "critpath/fresh", Args: "critpath -workload smallbank -theta 0.99 2095"},
	{Name: "critpath/in", Args: "critpath -in $FLIGHT 9"},
	{Name: "help/trace", Args: "-h", Help: true},
	{Name: "help/trace-explicit", Args: "trace -h", Help: true},
	{Name: "help/why", Args: "why -h", Help: true},
	{Name: "help/graph", Args: "graph -h", Help: true},
	{Name: "help/windows", Args: "windows -h", Help: true},
	{Name: "help/tail", Args: "tail -h", Help: true},
	{Name: "help/critpath", Args: "critpath -h", Help: true},
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
	return export(t, "runtime.json", func(w io.Writer) error { return crest.WriteRuntimeStats(w, stats) })
}

// TestCLIDigests holds cliCases to testdata/cli.digest. In an argument
// "$WHY", "$FLIGHT" and "$RT" are the crest-why, crest-flight and
// crest-runtime fixture exports. Its rows were generated at the commit
// before the RunSpec key table replaced benchFlags; a refactor of that
// plumbing must not edit them.
func TestCLIDigests(t *testing.T) {
	pin.CLI(t, "testdata/cli.digest", cliCases, run,
		"$WHY", whyFixture(t), "$FLIGHT", flightFixture(t), "$RT", runtimeFixture(t))
}
