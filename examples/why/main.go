// Why: run a deliberately contended SmallBank mix with abort
// forensics enabled, then answer the question every aborted
// transaction raises — who did this to me? The recorder keeps the
// wait-for and conflict edges the engines observe, so an abort
// explains itself as a blame chain: the access that killed it, the
// transaction that made that access, and what *that* transaction was
// waiting on, hop by hop with virtual-time durations.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"crest"
)

func main() {
	fmt.Println("SmallBank, Zipf θ=0.99, 120 coordinators — abort forensics on")
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
		ObserverOptions: crest.ObserverOptions{Why: true}, // record wait-for/conflict edges; the schedule is unchanged
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	fmt.Printf("  committed=%d aborted=%d\n\n", res.Committed, res.Aborted)

	snap := res.Why
	if len(snap.Txns) == 0 {
		log.Fatal("no transactions recorded")
	}

	// Pick the aborted transaction with the deepest blame chain — the
	// most interesting victim.
	var victim uint64
	longest := 0
	for i := range snap.Txns {
		tx := &snap.Txns[i]
		if tx.Cause == nil {
			continue
		}
		if hops := snap.BlameChain(tx.ID, 0); len(hops) > longest {
			longest, victim = len(hops), tx.ID
		}
	}
	if victim == 0 {
		log.Fatal("no abort recorded a cause; raise the contention")
	}

	fmt.Printf("deepest blame chain (%d hops):\n\n", longest)
	if err := crest.WriteWhyBlame(os.Stdout, snap, victim); err != nil {
		log.Fatal(err)
	}

	// The same snapshot aggregates into a contention graph: who blocks
	// whom, which records are hot, and any wait cycles.
	g := snap.Graph()
	fmt.Println("\nhottest cells:")
	for i, h := range g.Hotspots {
		if i == 3 {
			break
		}
		fmt.Printf("  table %d, key %d, cell %d: %d conflict edges, %d abort causes, %s total wait\n",
			h.Table, h.Key, h.Cell, h.Count, h.Aborts, h.TotalWait)
	}
	fmt.Println("\nExport the full graph with cmd/crestbench:")
	fmt.Println("  crestbench -run -workload smallbank -theta 0.99 -why out.dot && dot -Tsvg out.dot")
}
