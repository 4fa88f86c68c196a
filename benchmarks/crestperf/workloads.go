package main

import (
	"runtime"

	"crest/internal/bench"
	"crest/internal/sim"
	"crest/internal/workload"
)

// warmup is the virtual ramp-up every workload excludes from its
// simulated-clock results.
const warmup = 2 * sim.Millisecond

// workloadDef is one named benchmark workload: a bench.Config recipe
// plus the amount of virtual time one rep simulates.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (mirrored in
	// BENCHMARK.json and README.md).
	Why string
	// VirtualMS is the rep's bench.Config.Duration (warmup included).
	VirtualMS float64
	// Reps is how many reps a run of nominalSeconds makes; each rep is a
	// fresh process simulating its own sub-seed.
	Reps int
	// TracedMS, when set, is the traced rep's longer duration: the issue's
	// own, which a rep that must repeat across seeds cannot afford. It
	// buys the CPU profile three times the samples.
	TracedMS float64
	// Observed attaches all four recorders and charges their snapshot
	// and export to the rep's host seconds.
	Observed bool
	// config builds the run without seed, duration or observers.
	config func() bench.Config
}

// defaultWorkers is the partitioned runtime's thread count: two when
// the host has them, so sharded-w2 exercises the barrier on any
// multi-core host and still runs on a single core.
func defaultWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// The generators come from bench.Quick()'s factories and bench.Config
// directly: crest.RunBenchmark would turn Theta 0 into 0.99 and
// ycsb-cold would silently stop being cold.
func smallbank(theta float64) func() workload.Generator { return bench.Quick().SmallBank(theta) }

func tpcc40() func() workload.Generator { return bench.Quick().TPCC(40) }

// ycsbColdRecords is far beyond what 120 coordinators' local-object and
// address caches can hold, so nearly every access is a first touch.
const ycsbColdRecords = 400_000

func ycsbCold() func() workload.Generator {
	p := bench.Quick()
	p.YCSBRecords = ycsbColdRecords
	return p.YCSB(0, 0.05, 4)
}

// smallbankHot runs 120 coordinators, not the issue's 240. At 240 (37 %
// aborts, starving transactions of 9 ms and more) ten seeds spread
// sim_kops by 6.7 %, allocs_per_txn by 6.5 % and sim_p999_us by 15 %
// even over 58 measured ms (results/cross-seed-issue-sizing.txt); at 120
// (22 % aborts) six sub-seeds of 22 ms spread them by 2-4 %, 1-2 % and
// 2-3 % (results/cross-seed.txt), and a driver judges across seeds.
func smallbankHot() bench.Config {
	return bench.Config{System: bench.CREST, Workload: smallbank(0.9), CompNodes: 3, Coordinators: 120}
}

func tpccFord() bench.Config {
	return bench.Config{System: bench.FORD, Workload: tpcc40(), CompNodes: 3, Coordinators: 240}
}

// shardedW2 runs 240 coordinators, not the issue's 480: at 480 the p999
// sits on retry plateaus near 430, 575 and 700 us, the seed picks one,
// and ten seeds spread it by 33 %, more than any bound may be.
func shardedW2() bench.Config {
	return bench.Config{
		System: bench.CREST, Workload: smallbank(0.5),
		Shards: 4, CompNodes: 8, Coordinators: 240, Placement: "hash",
		Workers: defaultWorkers(),
	}
}

// workloads is the benchmark's fixed workload set, in report order.
// The three workloads whose simulated result hardly moves from seed to
// seed (ycsb-cold, tpcc-crest, tpcc-ford) run one rep of the issue's
// duration, 7-9 s of host time with at least 35 commit-latency samples
// beyond p999. The contended ones would not repeat across seeds that
// way (results/cross-seed-issue-sizing.txt): they run several shorter
// reps, one sub-seed each; every rep still commits 35 000 transactions.
var workloads = []workloadDef{
	{
		Name:      "smallbank-hot",
		Why:       "skewed SmallBank on CREST: admission waits, wait queues and retries; cheap events, so sim handoff dominates",
		VirtualMS: 24,
		Reps:      6,
		TracedMS:  60,
		config:    smallbankHot,
	},
	{
		Name:      "smallbank-observed",
		Why:       "smallbank-hot with trace, metrics, why and flight recorders attached, snapshotted and exported: observer cost",
		VirtualMS: 16,
		Reps:      5,
		TracedMS:  60,
		Observed:  true,
		config:    smallbankHot,
	},
	{
		Name:      "ycsb-cold",
		Why:       "uniform YCSB over 400k records, 5% writes: bypasses contention; rdma, hashindex, memnode and first-touch objects",
		VirtualMS: 12,
		Reps:      1,
		config: func() bench.Config {
			return bench.Config{System: bench.CREST, Workload: ycsbCold(), CompNodes: 3, Coordinators: 120}
		},
	},
	{
		Name:      "tpcc-crest",
		Why:       "TPC-C 40 warehouses on CREST: large multi-table transactions; core decode, object cache, flush and tpcc generation",
		VirtualMS: 10,
		Reps:      1,
		config: func() bench.Config {
			return bench.Config{System: bench.CREST, Workload: tpcc40(), CompNodes: 3, Coordinators: 120}
		},
	},
	{
		Name:      "tpcc-ford",
		Why:       "the same TPC-C on the FORD baseline: shared sim, rdma, layout and workload layers with no core at all",
		VirtualMS: 16,
		Reps:      1,
		config:    tpccFord,
	},
	{
		Name:      "sharded-w2",
		Why:       "SmallBank on 4 shard groups, 2 workers: the partitioned runtime's windows, mailboxes, barrier, cross-shard commits",
		VirtualMS: 6,
		Reps:      3,
		TracedMS:  12,
		config:    shardedW2,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
