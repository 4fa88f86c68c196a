// Metrics: run a short high-contention YCSB mix with the windowed
// metrics plane enabled and print the abort-rate time-series — how
// contention evolves over virtual time, not just the end-of-run total.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"crest"
)

func main() {
	// A deliberately hostile mix: 24 coordinators hammering a small
	// Zipfian-skewed (θ=0.99) keyspace, half the accesses writes.
	res, err := crest.RunBenchmark(crest.BenchmarkConfig{
		RunSpec: crest.RunSpec{
			System:       crest.SystemCREST,
			Workload:     crest.WorkloadSpec{Kind: crest.WorkloadYCSB, Theta: 0.99, WriteRatio: 0.5, RecordsPerTx: 4},
			Coordinators: 24,
			Duration:     5 * time.Millisecond,
			Warmup:       time.Millisecond,
			Profile:      "quick",
		},
		ObserverOptions: crest.ObserverOptions{
			Metrics:       true,
			MetricsWindow: 200 * time.Microsecond, // one row per 200µs of virtual time
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)

	// The snapshot holds one sample per window for every series:
	// per-window deltas for counters, boundary values for gauges.
	snap := res.Metrics
	attempts := snap.Find("crest_txn_attempts_total", "")
	if attempts == nil || len(snap.Times) == 0 {
		log.Fatal("no windowed series recorded")
	}

	// Abort rate per window: aborted attempts (summed across the
	// by-reason series) over attempts started in the window.
	abortsPerWindow := make([]float64, len(snap.Times))
	for i := range snap.Series {
		se := &snap.Series[i]
		if se.Name != "crest_txn_aborts_total" {
			continue
		}
		for w, v := range se.Samples {
			abortsPerWindow[w] += v
		}
	}
	fmt.Println("\nabort rate over virtual time:")
	fmt.Println("  window     attempts  aborts  rate")
	for w, start := range snap.Times {
		a := attempts.Samples[w]
		rate := 0.0
		if a > 0 {
			rate = abortsPerWindow[w] / a
		}
		fmt.Printf("  %7.0fµs  %8.0f  %6.0f  %5.1f%%  %s\n",
			float64(start)/1e3, a, abortsPerWindow[w], 100*rate,
			strings.Repeat("#", int(float64(rate*40)+0.5)))
	}

	// The same snapshot renders as a terminal summary or exports to
	// Prometheus/CSV/JSON (see cmd/crestbench -metrics).
	fmt.Println()
	if err := crest.WriteMetricsSparklines(os.Stdout, snap); err != nil {
		log.Fatal(err)
	}

	sharded()
}

// sharded runs the same plane on a partitioned topology: four shard
// groups, each a simulation partition with its own recorder shard, all
// merged into one deterministic snapshot. The per-shard engine gauges
// and the window executor's partition instruments carry labels, so one
// snapshot answers "which shard group is hot?" and "how balanced is the
// partitioned schedule?".
func sharded() {
	res, err := crest.RunBenchmark(crest.BenchmarkConfig{
		RunSpec: crest.RunSpec{
			System:       crest.SystemCREST,
			Workload:     crest.WorkloadSpec{Kind: crest.WorkloadSmallBank, Theta: 0.5},
			Coordinators: 24,
			Shards:       4,
			Placement:    "modulo",
			Duration:     5 * time.Millisecond,
			Warmup:       time.Millisecond,
			Profile:      "quick",
		},
		ObserverOptions: crest.ObserverOptions{Metrics: true},
		// Four workers: the observed run parallelizes too, and the
		// snapshot below is byte-identical at any worker count.
		Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(res)

	snap := res.Metrics
	fmt.Println("\nper-shard totals (label-selected from one merged snapshot):")
	fmt.Println("  shard  commits  events  injected  mailbox-hwm  cross-verbs")
	for g := 0; g < 4; g++ {
		label := fmt.Sprintf(`shard="%d"`, g)
		part := fmt.Sprintf(`partition="%d"`, g)
		fmt.Printf("  %5d  %7.0f  %6.0f  %8.0f  %11.0f  %11.0f\n", g,
			seriesTotal(snap, "crest_shard_commits_total", label),
			seriesTotal(snap, "crest_sim_part_dispatches_total", part),
			seriesTotal(snap, "crest_sim_part_injected_total", part),
			seriesLast(snap, "crest_sim_part_mailbox_hwm", part),
			seriesTotal(snap, "crest_rdma_cross_part_verbs_total", part))
	}
	fmt.Printf("\nwindow executor: %.0f windows, mean width %.0f virtual ns\n",
		seriesTotal(snap, "crest_sim_windows_total", ""),
		seriesLast(snap, "crest_sim_window_width_avg", ""))
}

// seriesTotal returns a counter series' end-of-run total (0 if absent).
func seriesTotal(snap *crest.MetricsSnapshot, name, labels string) float64 {
	if se := snap.Find(name, labels); se != nil {
		return se.Total
	}
	return 0
}

// seriesLast returns a gauge series' final windowed sample (0 if absent).
func seriesLast(snap *crest.MetricsSnapshot, name, labels string) float64 {
	if se := snap.Find(name, labels); se != nil && len(se.Samples) > 0 {
		return se.Samples[len(se.Samples)-1]
	}
	return 0
}
