package main

import (
	"testing"

	"crest/internal/pin"
)

// cliCases lists every distinct -run invocation shape of ci.yml,
// .github/determinism.sh, README.md and EXPERIMENTS.md, scaled down
// with -quick / -coords / -duration where the documented size would
// make the test slow; plus -list and the -h text.
func cliCases() []pin.Case {
	var cases []pin.Case
	// Each engine × workload at the flag defaults (warehouses, theta,
	// writes, n), on a small topology.
	for _, sys := range []string{"crest", "crest-cell", "crest-base", "ford", "motor"} {
		for _, wl := range []string{"tpcc", "smallbank", "ycsb"} {
			cases = append(cases, pin.Case{Name: "grid/" + sys + "/" + wl,
				Args: "-run -quick -system " + sys + " -workload " + wl + " -coords 24 -duration 2ms -warmup 500us"})
		}
	}
	// Each -trace format, and a sharded run's metrics, at a preset small
	// enough that the default trace ring holds the whole run. The file
	// rows are the values cresttrace pinned when it rendered these runs.
	small := "-run -quick -workload smallbank -warehouses 8 -coords 12 -duration 2ms -warmup 200us "
	cases = append(cases, []pin.Case{
		{Name: "trace/json", Files: []string{"trace.json"}, Args: small + "-system crest -trace $T/trace.json"},
		{Name: "trace/spans", Files: []string{"t.spans"}, Args: small + "-system ford -trace $T/t.spans"},
		{Name: "trace/tpcc", Files: []string{"t.spans"}, Args: small + "-workload tpcc -duration 1ms -trace $T/t.spans"},
		{Name: "trace/metrics", Files: []string{"m.csv"},
			Args: small + "-coords 24 -shards 2 -placement modulo -workers 2 -metrics $T/m.csv -metrics-window 200us"},
	}...)
	return append(cases, []pin.Case{
		// Every flag at its default except the table scale.
		{Name: "defaults/motor-ycsb", Args: "-run -quick -system motor -workload ycsb"},
		{Name: "defaults/ford-smallbank", Args: "-run -quick -system ford -workload smallbank"},
		{Name: "defaults/ford-tpcc", Args: "-run -quick -system ford -coords 12 -duration 5ms"},
		// README: -run -system crest -workload ycsb -theta 0.99 -coords 240.
		{Name: "readme/ycsb-240", Args: "-run -quick -system crest -workload ycsb -theta 0.99 -coords 240 -duration 5ms"},
		// ci.yml big-smoke / EXPERIMENTS.md: -run -big -duration 4ms -warmup 1ms -workers N.
		{Name: "big/scaled", Args: "-run -big -quick -duration 1200us -warmup 400us -workers 2"},
		{Name: "big/coords", Args: "-run -big -quick -coords 64 -duration 2ms -warmup 500us"},
		// ci.yml scenario-smoke; stdout is also the committed golden.
		{Name: "spec/drift-demo", Files: []string{"ts.csv"}, Golden: "../../examples/scenarios/drift-demo.quick.golden",
			Args: "-run -spec ../../examples/scenarios/drift-demo.spec -quick -coords 24 -duration 6ms -warmup 1ms -metrics $T/ts.csv"},
		// .github/determinism.sh: sharded SmallBank with all four
		// observers (the runtime-stats export carries wall-clock fields
		// and is not digested).
		{Name: "observers/all", Files: []string{"t.json", "m.csv", "w.json", "f.json"},
			Args: "-run -quick -system crest -workload smallbank -theta 0.99 -shards 4 -placement modulo -coords 48 " +
				"-duration 3ms -warmup 1ms -workers 2 -trace $T/t.json -metrics $T/m.csv -why $T/w.json -flight $T/f.json -runtime-stats $T/r.json"},
		// ci.yml bench-quick / EXPERIMENTS.md metrics time-series.
		{Name: "metrics/csv", Files: []string{"out.csv"},
			Args: "-run -quick -system crest -workload ycsb -theta 0.99 -coords 24 -duration 5ms -warmup 1ms -metrics $T/out.csv -metrics-window 100us"},
		{Name: "metrics/json", Files: []string{"out.json"},
			Args: "-run -quick -workload ycsb -theta 0.99 -coords 24 -duration 3ms -warmup 1ms -metrics $T/out.json -metrics-window 200us"},
		// README / EXPERIMENTS.md forensics: -why .json and .dot, -flight
		// .json and the rendered report.
		{Name: "why/json", Files: []string{"why.json"},
			Args: "-run -quick -workload smallbank -theta 0.99 -coords 120 -duration 3ms -warmup 1ms -why $T/why.json"},
		{Name: "why/dot", Files: []string{"why.dot"},
			Args: "-run -quick -workload smallbank -theta 0.99 -coords 120 -duration 3ms -warmup 1ms -why $T/why.dot"},
		{Name: "flight/json", Files: []string{"flight.json"},
			Args: "-run -quick -workload smallbank -theta 0.99 -duration 6ms -flight $T/flight.json"},
		{Name: "flight/report", Files: []string{"flight.txt"},
			Args: "-run -quick -workload smallbank -theta 0.99 -duration 6ms -flight $T/flight.txt"},
		// EXPERIMENTS.md crossover cell and hotspot seed export.
		{Name: "crossover/cell",
			Args: "-run -quick -system crest -workload ycsb -theta 1.22 -writes 0.5 -n 4 -coords 120 -duration 5ms -warmup 1ms -shards 4 -placement modulo"},
		{Name: "crossover/why", Files: []string{"hot.json"},
			Args: "-run -quick -theta 1.22 -shards 4 -placement modulo -coords 12 -duration 5ms -why $T/hot.json"},
		{Name: "crossover/hotspot",
			Args: "-run -quick -workload smallbank -shards 4 -placement hotspot -coords 24 -duration 3ms -warmup 1ms"},
		// EXPERIMENTS.md: any sharded topology, -workers N; a non-default seed.
		{Name: "sharded/workers", Args: "-run -quick -workload smallbank -shards 4 -placement modulo -coords 240 -duration 3ms -warmup 1ms -workers 4"},
		{Name: "seed", Args: "-run -quick -workload smallbank -coords 24 -duration 2ms -warmup 500us -seed 7"},
		{Name: "list", Args: "-list"},
		{Name: "help", Args: "-h", Help: true},
	}...)
}

// TestCLIDigests holds cliCases to testdata/cli.digest. Its rows were
// generated at the commit before the RunSpec key table replaced the
// hand-written flag plumbing; a refactor of that plumbing must not
// edit them.
func TestCLIDigests(t *testing.T) {
	pin.CLI(t, "testdata/cli.digest", cliCases(), run)
}
