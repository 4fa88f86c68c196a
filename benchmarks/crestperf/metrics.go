package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. Bound is the share
// of the baseline's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// repMetric is a metricDef plus how to read it off one rep.
type repMetric struct {
	metricDef
	// exact marks an end-to-end metric that is a pure function of the
	// rep's sub-seed (simulated clock, allocation counts). Its samples
	// differ only by schedule, so the run reports their mean, the
	// lower-variance estimate, and two runs on one seed must agree on
	// it within sameSeedBound. Host-clock samples are disturbed by the
	// sandbox, one-sidedly and in bursts: those report the median.
	exact bool
	of    func(r *repResult) float64
}

func perTxn(v float64, r *repResult) float64 { return v / float64(r.Committed) }

// endToEnd is what a user of the simulator sees, on both clocks. The
// bounds are the ones BENCHMARK.json carries. A driver holds them
// against runs on ten different seeds on a shared sandbox and wants
// every spread below a third of its bound (CONTRACT.md), so each is
// three times the widest cross-seed spread any workload showed in two
// sets of ten runs on the parent commit (results/cross-seed.txt),
// rounded up to a multiple of 5 % and capped at the contract's 25 %. Two runs on one seed agree far
// closer than that: -verify-repeat holds exact metrics to sameSeedBound.
var endToEnd = []repMetric{
	{metricDef{"txn_per_host_s", "txn/s", higher, 0.25}, false,
		func(r *repResult) float64 { return float64(r.Committed) / r.LoopS }},
	{metricDef{"cpu_ms_per_ktxn", "ms", lower, 0.25}, false,
		func(r *repResult) float64 { return perTxn(r.CPUS*1e6, r) }},
	{metricDef{"setup_s", "s", lower, 0.25}, false,
		func(r *repResult) float64 { return r.SetupS }},
	{metricDef{"allocs_per_txn", "count", lower, 0.1}, true,
		func(r *repResult) float64 { return perTxn(float64(r.Mallocs), r) }},
	// Not exact: with recorders attached the bytes move by 1.3 % between
	// two runs on one seed (pooled encoder buffers live or die by GC timing).
	{metricDef{"alloc_kb_per_txn", "KB", lower, 0.15}, false,
		func(r *repResult) float64 { return perTxn(float64(r.AllocBytes)/1024, r) }},
	{metricDef{"peak_rss_mb", "MB", lower, 0.15}, false,
		func(r *repResult) float64 { return r.PeakRSSMB }},
	{metricDef{"sim_kops", "KOPS", higher, 0.15}, true,
		func(r *repResult) float64 { return r.KOPS }},
	{metricDef{"sim_p50_us", "us", lower, 0.15}, true,
		func(r *repResult) float64 { return r.P50Us }},
	{metricDef{"sim_p99_us", "us", lower, 0.25}, true,
		func(r *repResult) float64 { return r.P99Us }},
	{metricDef{"sim_p999_us", "us", lower, 0.25}, true,
		func(r *repResult) float64 { return r.P999Us }},
}

// cpuLayers are the repository's packages under crest/internal, each a
// layer with a <layer>.cpu_share_pct; go_runtime takes the remainder.
var cpuLayers = []string{
	"sim", "rdma", "layout", "hashindex", "memnode", "placement", "engine",
	"core", "ford", "motor", "workload", "scenario",
	"trace", "metrics", "causality", "flight", "stats", "bench",
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// countMetrics are the per-layer metrics read off the traced rep's
// public bench.Result fields: exact counts or simulated-clock figures,
// apart from events_per_host_s and the window executor's percentages.
var countMetrics = []repMetric{
	{metricDef{Name: "sim.events_per_txn", Unit: "count", Better: lower}, false,
		func(r *repResult) float64 { return perTxn(float64(r.Events), r) }},
	{metricDef{Name: "sim.events_per_host_s", Unit: "1/s", Better: higher}, false,
		func(r *repResult) float64 { return float64(r.Events) / r.LoopS }},
	{metricDef{Name: "rdma.verbs_per_txn", Unit: "count", Better: lower}, false,
		func(r *repResult) float64 { return perTxn(float64(r.Verbs.Total()), r) }},
	{metricDef{Name: "rdma.rtts_per_txn", Unit: "count", Better: lower}, false,
		func(r *repResult) float64 { return perTxn(float64(r.Verbs.RTTs), r) }},
	{metricDef{Name: "rdma.bytes_per_txn", Unit: "B", Better: lower}, false,
		func(r *repResult) float64 { return perTxn(float64(r.Verbs.BytesRead+r.Verbs.BytesWrite), r) }},
	{metricDef{Name: "rdma.cross_verbs_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return pct(r.CrossVerbs, r.Verbs.Total()) }},
	{metricDef{Name: "engine.abort_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return pct(r.Aborted, r.Aborted+r.Committed) }},
	{metricDef{Name: "engine.false_abort_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return pct(r.FalseAborts, r.Aborted) }},
	{metricDef{Name: "engine.attempts_per_commit", Unit: "count", Better: lower}, false,
		func(r *repResult) float64 { return perTxn(float64(r.Aborted+r.Committed), r) }},
	{metricDef{Name: "engine.exec_us", Unit: "us", Better: lower}, false,
		func(r *repResult) float64 { return r.ExecUs }},
	{metricDef{Name: "engine.validate_us", Unit: "us", Better: lower}, false,
		func(r *repResult) float64 { return r.ValidateUs }},
	{metricDef{Name: "engine.commit_us", Unit: "us", Better: lower}, false,
		func(r *repResult) float64 { return r.CommitUs }},
	{metricDef{Name: "engine.cross_shard_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return pct(r.CrossShard, r.Aborted+r.Committed) }},
	{metricDef{Name: "sim.world.windows", Unit: "count", Better: lower}, false,
		func(r *repResult) float64 { return float64(r.runtime().Windows) }},
	{metricDef{Name: "sim.world.barrier_wait_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return r.runtime().BarrierWaitPct }},
	{metricDef{Name: "sim.world.worker_occupancy_pct", Unit: "%", Better: higher}, false,
		func(r *repResult) float64 { return r.runtime().OccupancyPct }},
	{metricDef{Name: "sim.world.part_imbalance", Unit: "ratio", Better: lower}, false,
		func(r *repResult) float64 { return r.runtime().Imbalance }},
	{metricDef{Name: "rdma.wire_share_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return r.flight().WirePct }},
	{metricDef{Name: "core.wait_share_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return r.flight().WaitPct }},
	{metricDef{Name: "core.queue_backoff_share_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return r.flight().QueueBackoffPct }},
	{metricDef{Name: "core.compute_share_pct", Unit: "%", Better: lower}, false,
		func(r *repResult) float64 { return r.flight().ComputePct }},
	{metricDef{Name: "go_runtime.gc_cycles", Unit: "count", Better: lower}, false,
		func(r *repResult) float64 { return float64(r.GCCycles) }},
}

// runtime is the rep's window-executor summary, all zero for a run on
// the sequential scheduler.
func (r *repResult) runtime() *runtimeSummary {
	if r.Runtime == nil {
		return &runtimeSummary{}
	}
	return r.Runtime
}

// flight is the rep's latency-budget shares, all zero when the flight
// recorder was not attached.
func (r *repResult) flight() *flightShares {
	if r.Flight == nil {
		return &flightShares{}
	}
	return r.Flight
}

// otherLayerMetrics are the per-layer metrics that do not come off the
// traced rep's counters: CPU-profile shares (appended by init), the
// micro-drivers' timings and the side runs.
var otherLayerMetrics = []metricDef{
	{Name: "go_runtime.malloc_pct", Unit: "%", Better: lower},
	{Name: "go_runtime.sched_pct", Unit: "%", Better: lower},
	{Name: "go_runtime.gc_pct", Unit: "%", Better: lower},
	{Name: "go_runtime.fmt_pct", Unit: "%", Better: lower},

	{Name: "sim.dispatch_ns", Unit: "ns", Better: lower},
	{Name: "sim.dispatch_allocs", Unit: "count", Better: lower},
	{Name: "sim.waitqueue_ns", Unit: "ns", Better: lower},
	{Name: "sim.callat_ns", Unit: "ns", Better: lower},
	{Name: "sim.mailbox_send_ns", Unit: "ns", Better: lower},
	{Name: "rdma.read_ns", Unit: "ns", Better: lower},
	{Name: "rdma.cas_batch_ns", Unit: "ns", Better: lower},
	{Name: "rdma.postmulti_ns", Unit: "ns", Better: lower},
	{Name: "rdma.post_allocs", Unit: "count", Better: lower},
	{Name: "layout.header_codec_ns", Unit: "ns", Better: lower},
	{Name: "layout.lockmask_ns", Unit: "ns", Better: lower},
	{Name: "hashindex.lookup_ns", Unit: "ns", Better: lower},
	{Name: "hashindex.addrcache_get_ns", Unit: "ns", Better: lower},
	{Name: "memnode.pool_setup_ms", Unit: "ms", Better: lower},
	{Name: "placement.shard_ns", Unit: "ns", Better: lower},
	{Name: "placement.hotspot_shard_ns", Unit: "ns", Better: lower},
	{Name: "core.attempt_ns", Unit: "ns", Better: lower},
	{Name: "core.attempt_allocs", Unit: "count", Better: lower},
	{Name: "core.attempt_bytes", Unit: "B", Better: lower},
	{Name: "ford.attempt_ns", Unit: "ns", Better: lower},
	{Name: "ford.attempt_allocs", Unit: "count", Better: lower},
	{Name: "motor.attempt_ns", Unit: "ns", Better: lower},
	{Name: "motor.attempt_allocs", Unit: "count", Better: lower},
	{Name: "workload.smallbank.next_ns", Unit: "ns", Better: lower},
	{Name: "workload.ycsb.next_ns", Unit: "ns", Better: lower},
	{Name: "workload.tpcc.next_ns", Unit: "ns", Better: lower},
	{Name: "workload.zipf_pick_ns", Unit: "ns", Better: lower},
	{Name: "workload.load_ms", Unit: "ms", Better: lower},
	{Name: "scenario.parse_us", Unit: "us", Better: lower},

	{Name: "motor.txn_per_host_s", Unit: "txn/s", Better: higher},
	{Name: "sim.world.speedup_w2", Unit: "ratio", Better: higher},
	{Name: "bench.observed_overhead_pct", Unit: "%", Better: lower},
}

func init() {
	for _, l := range append([]string{runtimeLayer}, cpuLayers...) {
		otherLayerMetrics = append(otherLayerMetrics, metricDef{Name: l + ".cpu_share_pct", Unit: "%", Better: lower})
	}
	for _, o := range observerNames {
		otherLayerMetrics = append(otherLayerMetrics,
			metricDef{Name: o + ".overhead_pct", Unit: "%", Better: lower},
			metricDef{Name: o + ".snapshot_ms", Unit: "ms", Better: lower},
			metricDef{Name: o + ".export_mb", Unit: "MB", Better: lower})
	}
}

// perLayerDefs lists every per-layer metric, counters first.
func perLayerDefs() []metricDef {
	defs := make([]metricDef, 0, len(countMetrics)+len(otherLayerMetrics))
	for _, m := range countMetrics {
		defs = append(defs, m.metricDef)
	}
	return append(defs, otherLayerMetrics...)
}

// stat is a metric's value over a run's reps, with the quartiles
// beside it and how many samples they rest on.
type stat struct {
	// Value is what the metric reports: the samples' median, or — for
	// a metric that is exact per sub-seed — their mean.
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are the per-rep values behind the summary, in rep order.
	Samples []float64 `json:"samples,omitempty"`
}

// single is the stat of a metric measured once.
func single(v float64) stat { return stat{Value: v, Median: v, Q1: v, Q3: v, N: 1} }

// summarize reduces samples to their median (or mean, when asked) and
// quartiles. Quartiles follow Python's statistics.quantiles(n=4) (the
// exclusive method), so the spreads printed here are the ones the
// acceptance rule computes.
func summarize(samples []float64, mean bool) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return single(math.NaN())
	case 1:
		st := single(s[0])
		st.Samples = samples
		return st
	}
	quantile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	st := stat{Median: quantile(2), Q1: quantile(1), Q3: quantile(3), N: n, Samples: samples}
	st.Value = st.Median
	if mean {
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		st.Value = sum / float64(n)
	}
	return st
}

// worseBy is how much worse cur is than base, as a share of base, in
// the metric's own direction (negative when cur is better).
func worseBy(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == higher {
		return -d
	}
	return d
}
