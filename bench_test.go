package crest

// One testing.B benchmark per table and figure of the paper's
// evaluation. Each iteration regenerates the artifact at a reduced
// profile and reports the headline series as custom metrics, so
//
//	go test -bench=. -benchmem
//
// walks the full evaluation. cmd/crestbench runs the same experiments
// at the near-paper "full" profile; EXPERIMENTS.md records those
// results against the paper's numbers.

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"crest/internal/bench"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/workload"
)

// benchProfile is even smaller than the quick profile so the whole
// -bench=. sweep stays minutes-scale.
func benchProfile() bench.Profile {
	p := bench.Quick()
	p.Duration = 3 * sim.Millisecond
	p.Warmup = 500 * sim.Microsecond
	p.CoordSweep = []int{24, 72}
	p.MaxCoords = 72
	p.YCSBRecords = 10_000
	p.SBAccounts = 10_000
	p.TPCCScale.CustomersPerDistrict = 12
	p.TPCCScale.Items = 128
	p.TPCCScale.OrdersPerDistrict = 16
	return p
}

// runExperiment executes one registered experiment per b.N iteration
// and reports the first row's numeric columns as metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	p := benchProfile()
	var tables []bench.Table
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMatrix([]string{id}, p, bench.MatrixOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tables = m.Experiments[0].Tables
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table %s", id, tab.ID)
		}
		last := tab.Rows[len(tab.Rows)-1]
		for col := 1; col < len(last); col++ {
			v, err := strconv.ParseFloat(trimPct(last[col]), 64)
			if err != nil {
				continue // non-numeric cell
			}
			name := fmt.Sprintf("%s_%s", tab.ID, tab.Header[col])
			b.ReportMetric(v, sanitizeMetric(name))
		}
	}
}

// Benchmarks, one per artifact, in the paper's order.

func BenchmarkFig2Motivation(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFig3Aborts(b *testing.B)      { runExperiment(b, "fig3") }
func BenchmarkFig4Breakdown(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkTable1Space(b *testing.B)     { runExperiment(b, "table1") }
func BenchmarkTable2Ops(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkExp1Throughput(b *testing.B)  { runExperiment(b, "exp1") }
func BenchmarkExp2Latency(b *testing.B)     { runExperiment(b, "exp2") }
func BenchmarkExp3Tail(b *testing.B)        { runExperiment(b, "exp3") }
func BenchmarkExp4Breakdown(b *testing.B)   { runExperiment(b, "exp4") }
func BenchmarkExp5Factor(b *testing.B)      { runExperiment(b, "exp5") }
func BenchmarkExp6Skew(b *testing.B)        { runExperiment(b, "exp6") }
func BenchmarkExp7RecordCount(b *testing.B) { runExperiment(b, "exp7") }
func BenchmarkExp8WriteRatio(b *testing.B)  { runExperiment(b, "exp8") }

// BenchmarkAblationRTT sweeps the fabric round-trip time, the latency
// knob DESIGN.md calls out: CREST's relative win should persist across
// interconnect speeds.
func BenchmarkAblationRTT(b *testing.B) {
	p := benchProfile()
	for _, rtt := range []time.Duration{1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond} {
		rtt := rtt
		b.Run(fmt.Sprintf("rtt=%v", rtt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, system := range []bench.SystemKind{bench.CREST, bench.FORD} {
					cfg := benchCfg(p, system, p.YCSB(0.99, 0.5, 4))
					cfg.Params = rdma.DefaultParams()
					cfg.Params.RTT = sim.Duration(rtt)
					res, err := bench.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.ThroughputKOPS(), string(system)+"_KOPS")
				}
			}
		})
	}
}

// BenchmarkAblationReplication compares f=0 against the paper's f=1
// synchronous backup.
func BenchmarkAblationReplication(b *testing.B) {
	p := benchProfile()
	for _, f := range []int{0, 1} {
		f := f
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(p, bench.CREST, p.TPCC(40))
				cfg.Replicas = f
				res, err := bench.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ThroughputKOPS(), "KOPS")
				b.ReportMetric(res.Lat.Avg(), "avg_µs")
			}
		})
	}
}

// trimPct strips a trailing percent sign from a table cell.
func trimPct(s string) string {
	if len(s) > 0 && s[len(s)-1] == '%' {
		return s[:len(s)-1]
	}
	return s
}

// sanitizeMetric keeps metric names benchstat-friendly.
func sanitizeMetric(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-', c == '/':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func benchCfg(p bench.Profile, system bench.SystemKind, wl func() workload.Generator) bench.Config {
	return bench.Config{
		System:       system,
		Workload:     wl,
		MemNodes:     2,
		CompNodes:    3,
		Coordinators: p.MaxCoords / 3 * 3,
		Replicas:     p.Replicas,
		Seed:         p.Seed,
		Duration:     p.Duration,
		Warmup:       p.Warmup,
	}
}
