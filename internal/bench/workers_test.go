package bench

import (
	"fmt"
	"reflect"
	"testing"

	"crest/internal/sim"
)

// runWorkers executes one sharded configuration at the given worker
// count and returns the result.
func runWorkers(t *testing.T, system SystemKind, workers int, check bool) Result {
	t.Helper()
	cfg := shardedCfg(system, 3, "modulo")
	cfg.Workers = workers
	cfg.CheckHistory = check
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The tentpole contract: a partitioned run is byte-identical at every
// worker count — the thread count selects wall-clock speed, never the
// schedule. Every deterministic field of the result must agree.
func TestPartitionedByteIdenticalAcrossWorkers(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			base := runWorkers(t, system, 1, false)
			if base.Committed == 0 {
				t.Fatal("no commits on the partitioned run")
			}
			for _, workers := range []int{2, 8} {
				res := runWorkers(t, system, workers, false)
				if res.Events != base.Events {
					t.Fatalf("workers=%d changed the schedule: %d vs %d events",
						workers, res.Events, base.Events)
				}
				if res.Verbs != base.Verbs {
					t.Fatalf("workers=%d changed fabric traffic:\n%+v\nvs\n%+v",
						workers, res.Verbs, base.Verbs)
				}
				if !reflect.DeepEqual(res.Run, base.Run) {
					t.Fatalf("workers=%d changed the measured aggregate:\n%+v\nvs\n%+v",
						workers, res.Run, base.Run)
				}
			}
		})
	}
}

// A partitioned run's history — the partitions' shards concatenated in
// partition order — must pass the strict serializability check: HLC
// timestamps order cross-partition conflicts exactly like the
// sequential oracle ordered single-partition ones, and never against
// real time.
func TestPartitionedHistorySerializable(t *testing.T) {
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		t.Run(string(system), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				for _, seed := range []int64{1, 2, 3} {
					t.Run(fmt.Sprintf("w%d/seed%d", workers, seed), func(t *testing.T) {
						cfg := shardedCfg(system, 3, "modulo")
						cfg.Workers, cfg.Seed, cfg.CheckHistory = workers, seed, true
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if res.History == nil || len(res.History.Txns) == 0 {
							t.Fatal("no history recorded")
						}
						if res.HistoryErr != nil {
							t.Fatalf("partitioned history not strictly serializable: %v", res.HistoryErr)
						}
						if res.Committed == 0 {
							t.Fatal("no commits recorded")
						}
					})
				}
			}
		})
	}
}

// Workers is invocation-level: on a topology that is not partitioned
// (single shard group), any worker count takes the classic sequential
// scheduler and produces the identical result.
func TestWorkersIgnoredOnSingleGroup(t *testing.T) {
	run := func(workers int) Result {
		cfg := shortCfg(CREST, tinySmallBank)
		cfg.Duration = 3 * sim.Millisecond
		cfg.Warmup = 500 * sim.Microsecond
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, eight := run(0), run(8)
	if base.Events != eight.Events || !reflect.DeepEqual(base.Run, eight.Run) {
		t.Fatalf("Workers perturbed a single-group run: %d vs %d events", base.Events, eight.Events)
	}
}

// A partition-unsafe workload (TPC-C mutates generator state per draw)
// must fall back to the sequential scheduler even on a sharded
// topology — and still run.
func TestPartitionUnsafeWorkloadFallsBack(t *testing.T) {
	cfg := shardedCfg(CREST, 3, "modulo")
	cfg.Workload = tinyTPCC
	cfg.Workers = 8
	if cfg.Partitioned(tinyTPCC()) {
		t.Fatal("TPC-C must not be partition-safe")
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no commits on the fallback path")
	}
}
