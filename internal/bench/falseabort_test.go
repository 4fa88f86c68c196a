package bench

import (
	"fmt"
	"testing"

	"crest/internal/sim"
)

// TestFalseAbortsAreFalseConflicts: a false abort is a shared record
// whose cells are disjoint (paper §2.3, Fig 3), and nothing else.
// SmallBank's records have one cell, so no engine may report one there,
// at any seed or shard count. CREST locks and validates cells, so it
// reports none on any workload. FORD and Motor lock records, so TPC-C's
// multi-cell records still give them some: the counter is not simply
// zero.
func TestFalseAbortsAreFalseConflicts(t *testing.T) {
	run := func(t *testing.T, cfg Config) Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted == 0 {
			t.Fatalf("%d commits and no aborts: the run tests nothing", res.Committed)
		}
		return res
	}
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for _, shards := range []int{1, 4} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/smallbank/shards%d/seed%d", system, shards, seed), func(t *testing.T) {
					cfg := shardedCfg(system, shards, "modulo")
					cfg.Seed = seed
					if res := run(t, cfg); res.FalseAborts != 0 {
						t.Errorf("%d of %d aborts false on one-cell records", res.FalseAborts, res.Aborted)
					}
				})
			}
		}
	}
	for _, wl := range []struct {
		name string
		cfg  func(SystemKind) Config
	}{
		{"tpcc", func(s SystemKind) Config { return shortCfg(s, tinyTPCC) }},
		{"ycsb", func(s SystemKind) Config { return shortCfg(s, tinyYCSB) }},
	} {
		t.Run("crest/"+wl.name, func(t *testing.T) {
			cfg := wl.cfg(CREST)
			cfg.Duration, cfg.Warmup = 3*sim.Millisecond, 500*sim.Microsecond
			if res := run(t, cfg); res.FalseAborts != 0 {
				t.Errorf("CREST: %d of %d aborts false; its locks and ENs are per cell", res.FalseAborts, res.Aborted)
			}
		})
	}
	for _, system := range []SystemKind{FORD, Motor} {
		t.Run(string(system)+"/tpcc", func(t *testing.T) {
			cfg := shortCfg(system, tinyTPCC)
			cfg.Duration, cfg.Warmup = 3*sim.Millisecond, 500*sim.Microsecond
			if res := run(t, cfg); res.FalseAborts == 0 {
				t.Errorf("%s: no false aborts in %d aborts on TPC-C's multi-cell records", system, res.Aborted)
			}
		})
	}
}
