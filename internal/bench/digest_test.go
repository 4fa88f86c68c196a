package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/pin"
	"crest/internal/sim"
	"crest/internal/trace"
	"crest/internal/workload"
)

// digestCfg is the small fixed configuration behind
// testdata/observer.digest. The unsharded topology runs with rings small
// enough to evict (so the digests cover the wrapped-ring unroll); the
// sharded one runs four partitions on two workers with default
// capacities (so they cover the family merge).
func digestCfg(system SystemKind, sharded bool) Config {
	cfg := shortCfg(system, tinySmallBank)
	cfg.Seed = 7
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 500 * sim.Microsecond
	cfg.Metrics = metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
	if sharded {
		cfg.MemNodes = 2
		cfg.Shards = 4
		cfg.Placement = "modulo"
		cfg.Workers = 2
		cfg.Trace = trace.NewRecorder(0)
		cfg.Why = causality.NewRecorder(causality.Options{})
		cfg.Flight = flight.NewRecorder(flight.Options{})
	} else {
		cfg.Trace = trace.NewRecorder(4096)
		cfg.Why = causality.NewRecorder(causality.Options{Capacity: 512, TxnCapacity: 256})
		cfg.Flight = flight.NewRecorder(flight.Options{TxnCapacity: 256})
	}
	return cfg
}

func sha(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestObserverExportDigests runs every engine, unsharded and sharded,
// with all four recorders attached and holds the sha256 of the
// Chrome-trace JSON, crest-metrics/v1, crest-why/v1 and crest-flight/v1
// exports, and of the result fingerprint, to testdata/observer.digest.
// Its rows were generated at commit f3b759e, before the observer seam
// was consolidated, and pin the bytes every later refactor of trace /
// metrics / causality / flight and their wiring must reproduce. One
// re-pin so far: the metrics sha of the three shards4 rows, when
// crest_rdma_cross_part_verbs_total stopped counting a mixed post's own
// partition's batches as crossed.
func TestObserverExportDigests(t *testing.T) {
	got := map[string]string{}
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		for _, sharded := range []bool{false, true} {
			name := string(system) + "/shards1"
			if sharded {
				name = string(system) + "/shards4-workers2"
			}
			cfg := digestCfg(system, sharded)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Committed == 0 {
				t.Fatalf("%s: no commits", name)
			}
			for col, write := range map[string]func(io.Writer) error{
				"chrome":  func(w io.Writer) error { return trace.WriteChromeTrace(w, cfg.Trace.Snapshot()) },
				"metrics": func(w io.Writer) error { return metrics.WriteJSON(w, cfg.Metrics.Snapshot()) },
				"why":     func(w io.Writer) error { return causality.WriteJSON(w, cfg.Why.Snapshot()) },
				"flight":  func(w io.Writer) error { return flight.WriteJSON(w, cfg.Flight.Snapshot()) },
				"result": func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "%d %d %d %+v %x %x %x %x", res.Committed, res.Aborted, res.Events,
						res.Verbs, res.ThroughputKOPS(), res.Lat.P50(), res.Lat.P99(), res.Lat.P999())
					return err
				},
			} {
				got[name+"/"+col] = sha(t, write)
			}
			ts, ws, fs := cfg.Trace.Snapshot(), cfg.Why.Snapshot(), cfg.Flight.Snapshot()
			exportsMatchEncodingJSON(t, name, ts, ws, fs)
			if !sharded && (ts.Dropped == 0 || ws.Dropped == 0 || fs.Dropped == 0) {
				t.Errorf("%s: a ring did not evict (trace %d, why %d, flight %d dropped): the digests no longer cover the wrapped unroll",
					name, ts.Dropped, ws.Dropped, fs.Dropped)
			}
		}
	}
	pin.Rows(t, "testdata/observer.digest", got)
}

// The views record one transaction under one identity: on the digest
// runs, every transaction the trace (from its begin event on), the why
// recorder and the flight recorder all still hold has the same id,
// coordinator, label and attempt count in each.
func TestViewsAgreeOnEachTransaction(t *testing.T) {
	type ident struct {
		coord    uint64
		label    string
		attempts int
	}
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		for _, sharded := range []bool{false, true} {
			cfg := digestCfg(system, sharded)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			ts := cfg.Trace.Snapshot()
			begun := map[uint64]bool{}
			for i := range ts.Events {
				if e := &ts.Events[i]; e.Kind == trace.KindTxnBegin {
					begun[e.Span] = true
				}
			}
			spans := map[uint64]ident{}
			for _, s := range ts.Spans() {
				if begun[s.ID] {
					spans[s.ID] = ident{s.Coord, s.Label, s.Attempts[len(s.Attempts)-1].N}
				}
			}
			whys := map[uint64]ident{}
			for _, x := range cfg.Why.Snapshot().Txns {
				whys[x.ID] = ident{x.Coord, x.Label, x.Attempt}
			}
			shared, retried := 0, 0
			for _, x := range cfg.Flight.Snapshot().Txns {
				span, inTrace := spans[x.ID]
				why, inWhy := whys[x.ID]
				if !inTrace || !inWhy {
					continue
				}
				fl := ident{x.Coord, x.Label, x.Attempts}
				if span != fl || why != fl {
					t.Errorf("%s sharded=%t: transaction %d is %+v in the trace, %+v in why, %+v in flight",
						system, sharded, x.ID, span, why, fl)
				}
				shared++
				if fl.attempts > 1 {
					retried++
				}
			}
			t.Logf("%s sharded=%t: %d transactions in all three views, %d retried", system, sharded, shared, retried)
			if shared < 50 || retried == 0 {
				t.Errorf("%s sharded=%t: %d transactions in all three views, %d of them retried: too few to compare",
					system, sharded, shared, retried)
			}
		}
	}
}

// strictDigestCfg is the configuration behind one
// testdata/strict.digest row. tinyYCSB (theta 0.99, half writes) reaches
// Motor's locked-read refetch and the direct path's snapshot-consistency
// refetch with its RNG draw; tinyTPCC runs multi-block transactions; the
// sharded SmallBank row runs four partitions on two workers through the
// cross-shard prepare.
func strictDigestCfg(system SystemKind, wl func() workload.Generator, sharded bool) Config {
	cfg := shortCfg(system, wl)
	cfg.Seed = 7
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 500 * sim.Microsecond
	cfg.Trace = trace.NewRecorder(0)
	cfg.Why = causality.NewRecorder(causality.Options{})
	if sharded {
		cfg.MemNodes = 2
		cfg.Shards = 4
		cfg.Placement = "modulo"
		cfg.Workers = 2
	}
	return cfg
}

// TestStrictEngineDigests runs the strict engines — the record-level
// baselines and CREST's Base / +Cell factor-analysis variants — on tiny
// SmallBank, TPC-C and YCSB unsharded, and on SmallBank at four shards
// and two workers, and holds each run's fingerprint to
// testdata/strict.digest: the result (commits, aborts, false aborts and
// abort reasons, cross-shard attempts, events, verbs, KOPS, latency
// percentiles, per-phase averages) and the sha256 of the Chrome trace
// and crest-why/v1 exports (event order and lock masks). Its rows were
// generated at commit 8b3c6aa ("Observer seam: ..."), before FORD, Motor
// and CREST's direct path were folded onto one driver, and pin what that
// driver must reproduce.
func TestStrictEngineDigests(t *testing.T) {
	workloads := []struct {
		name    string
		gen     func() workload.Generator
		sharded bool
	}{
		{"smallbank/shards1", tinySmallBank, false},
		{"tpcc/shards1", tinyTPCC, false},
		{"ycsb/shards1", tinyYCSB, false},
		{"smallbank/shards4-workers2", tinySmallBank, true},
	}
	got := map[string]string{}
	for _, system := range []SystemKind{FORD, Motor, CRESTBase, CRESTCell} {
		for _, wl := range workloads {
			name := string(system) + "/" + wl.name
			cfg := strictDigestCfg(system, wl.gen, wl.sharded)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Committed == 0 || res.Aborted == 0 {
				t.Fatalf("%s: %d commits, %d aborts: the row does not exercise both paths", name, res.Committed, res.Aborted)
			}
			reasons := make([]uint64, engine.AbortWait+1)
			for r, n := range res.ByReason {
				reasons[r] = n
			}
			got[name] = fmt.Sprintf("%d %d %d %v %d %d %d %+v %x %x %x %x %x %x %x %.12s %.12s",
				res.Committed, res.Aborted, res.FalseAborts, reasons, res.CrossShard, res.CrossShardAborts, res.Events,
				res.Verbs, res.ThroughputKOPS(), res.Lat.P50(), res.Lat.P99(), res.Lat.P999(),
				res.Phases.AvgExec(), res.Phases.AvgValidate(), res.Phases.AvgCommit(),
				sha(t, func(w io.Writer) error { return trace.WriteChromeTrace(w, cfg.Trace.Snapshot()) }),
				sha(t, func(w io.Writer) error { return causality.WriteJSON(w, cfg.Why.Snapshot()) }))
		}
	}
	pin.Rows(t, "testdata/strict.digest", got)
}
