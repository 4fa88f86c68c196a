// Bank: a SmallBank-style contended benchmark comparing all three
// systems on the same skewed transfer workload, printing the paper's
// headline metrics (throughput, abort rate, latency percentiles).
package main

import (
	"fmt"
	"log"
	"time"

	"crest"
)

func main() {
	fmt.Println("SmallBank, Zipf θ=0.99, 120 coordinators over 3 compute nodes")
	fmt.Println("(virtual-time measurement on the simulated RDMA fabric)")
	fmt.Println()
	fmt.Printf("%-7s %10s %9s %9s %9s %10s\n", "system", "KOPS", "abort%", "avg µs", "p99 µs", "committed")
	for _, system := range []crest.System{crest.SystemCREST, crest.SystemFORD, crest.SystemMotor} {
		res, err := crest.RunBenchmark(crest.BenchmarkConfig{RunSpec: crest.RunSpec{
			System:       system,
			Workload:     crest.WorkloadSpec{Kind: crest.WorkloadSmallBank, Theta: 0.99},
			Coordinators: 120,
			Duration:     10 * time.Millisecond,
			Warmup:       2 * time.Millisecond,
			Profile:      "quick",
		}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s %10.1f %8.1f%% %9.1f %9.1f %10d\n",
			res.Spec.System, res.KOPS, 100*res.AbortRate,
			res.Latency.Avg, res.Latency.P99, res.Committed)
	}
	fmt.Println()
	fmt.Println("CREST's localized execution lets transactions on the same compute node")
	fmt.Println("share hot accounts through the record cache instead of aborting each")
	fmt.Println("other in the memory pool (§5 of the paper).")
}
