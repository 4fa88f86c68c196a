// Tail: run a deliberately contended SmallBank mix with the flight
// recorder enabled, then answer the question every latency SLO
// postmortem raises — where did the p99.9 transaction's time go? The
// recorder gives every transaction an additive budget (queue,
// backoff, per-class wire time, lock-wait, per-phase compute) that
// sums exactly to its virtual-time latency, and keeps attempt-level
// exemplars for the worst outlier of each failure mode on each shard.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"crest"
)

func main() {
	fmt.Println("SmallBank, Zipf θ=0.99, 120 coordinators — flight recorder on")
	fmt.Println()
	res, err := crest.RunBenchmark(crest.BenchmarkConfig{
		RunSpec: crest.RunSpec{
			System:       crest.SystemCREST,
			Workload:     crest.WorkloadSpec{Kind: crest.WorkloadSmallBank, Theta: 0.99},
			Coordinators: 120,
			Duration:     5 * time.Millisecond,
			Warmup:       time.Millisecond,
			Profile:      "quick",
		},
		ObserverOptions: crest.ObserverOptions{Flight: true}, // record per-txn latency budgets; the schedule is unchanged
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	fmt.Printf("  committed=%d aborted=%d\n\n", res.Committed, res.Aborted)

	snap := res.Flight
	if len(snap.Txns) == 0 {
		log.Fatal("no transactions recorded")
	}

	// The tail report: per-component budget of the p50/p99/p999
	// cohorts, which component grows fastest toward the tail, and the
	// top exemplars with their dominant attempt.
	if err := crest.WriteFlightTail(os.Stdout, snap, 3); err != nil {
		log.Fatal(err)
	}

	// Walk the single worst exemplar's critical path attempt by
	// attempt: every row shows where that attempt's time went and every
	// gap between attempts is classified queue or backoff.
	var worstID uint64
	var worstTotal time.Duration
	for i := range snap.Exemplars {
		ex := &snap.Exemplars[i]
		if d := time.Duration(ex.Total()); d > worstTotal {
			worstTotal, worstID = d, ex.ID
		}
	}
	fmt.Printf("\nworst exemplar, attempt by attempt:\n\n")
	if err := crest.WriteFlightCritPath(os.Stdout, snap, worstID); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nExport the full recording with cmd/crestbench:")
	fmt.Println("  crestbench -run -workload smallbank -theta 0.99 -flight fl.json")
	fmt.Println("  cresttrace tail -in fl.json && cresttrace critpath -in fl.json <txnid>")
}
