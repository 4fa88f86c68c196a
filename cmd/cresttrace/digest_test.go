package main

import (
	"path/filepath"
	"testing"

	"crest"
	"crest/internal/pin"
)

// cliCases lists every subcommand on a run's export (fresh) and on a
// fixture (in), in the invocation shapes of ci.yml,
// .github/determinism.sh, README.md and EXPERIMENTS.md, plus each
// command's -h text.
var cliCases = []pin.Case{
	{Name: "why/fresh", Args: "why -in $SB_WHY 41"},
	{Name: "why/in", Args: "why -in $WHY 412"},
	{Name: "graph/fresh-dot", Args: "graph -in $SB_WHY"},
	{Name: "graph/in-dot", Args: "graph -in $WHY"},
	{Name: "windows/fresh", Args: "windows -in $SHARDED_RT"},
	{Name: "windows/in", Args: "windows -in $RT"},
	{Name: "tail/fresh", Args: "tail -in $SB_FLIGHT"},
	{Name: "tail/in", Args: "tail -in $FLIGHT -top 5"},
	{Name: "critpath/fresh", Args: "critpath -in $SB_FLIGHT 2095"},
	{Name: "critpath/in", Args: "critpath -in $FLIGHT 9"},
	{Name: "help/trace", Args: "-h", Help: true},
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
	path := filepath.Join(t.TempDir(), "runtime.json")
	if _, err := crest.Export(path, stats); err != nil {
		t.Fatal(err)
	}
	return path
}

// runExport runs smallRun with the key, value pairs of sets applied
// and obs recording, as `crestbench -run` with smallRunFlags and those
// flags would, and exports the view of it that pick returns to a
// temporary file called name, whose path it returns.
func runExport(t *testing.T, name string, obs crest.ObserverOptions, pick func(crest.BenchmarkResult) any, sets ...string) string {
	t.Helper()
	cfg := crest.BenchmarkConfig{RunSpec: smallRun(), ObserverOptions: obs}
	for i := 0; i < len(sets); i += 2 {
		if err := cfg.Set(sets[i], sets[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := crest.RunBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if _, err := crest.Export(path, pick(res)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIDigests holds cliCases to testdata/cli.digest. In an argument
// "$WHY", "$FLIGHT" and "$RT" are the crest-why, crest-flight and
// crest-runtime fixture exports, and the names with a prefix are
// exports of smallRun runs: the runs cresttrace itself used to make for
// the fresh rows, whose digests are unchanged from then. Its rows were
// generated at the commit before the RunSpec key table replaced
// benchFlags; a refactor of that plumbing must not edit them.
func TestCLIDigests(t *testing.T) {
	why := func(r crest.BenchmarkResult) any { return r.Why }
	pin.CLI(t, "testdata/cli.digest", cliCases, run,
		"$SB_WHY", runExport(t, "why.json", crest.ObserverOptions{Why: true}, why, "theta", "0.99"),
		"$YCSB_WHY", runExport(t, "why.json", crest.ObserverOptions{Why: true}, why, "workload", "ycsb", "theta", "0.99"),
		"$SB_FLIGHT", runExport(t, "flight.json", crest.ObserverOptions{Flight: true},
			func(r crest.BenchmarkResult) any { return r.Flight }, "theta", "0.99"),
		"$SHARDED_RT", runExport(t, "runtime.json", crest.ObserverOptions{},
			func(r crest.BenchmarkResult) any { return r.Runtime }, "shards", "4"),
		"$WHY", whyFixture(t), "$FLIGHT", flightFixture(t), "$RT", runtimeFixture(t))
}
