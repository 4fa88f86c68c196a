package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"crest/internal/sim"
	"crest/internal/trace"
	"crest/internal/workload"
)

// tracedRun executes a short contended run with tracing on and
// returns the Chrome JSON export.
func tracedRun(t *testing.T, system SystemKind, seed int64) ([]byte, *trace.Snapshot) {
	t.Helper()
	rec := trace.NewRecorder(0)
	cfg := shortCfg(system, tinySmallBank)
	cfg.Seed = seed
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snap
}

func TestTraceDeterministicByteIdentical(t *testing.T) {
	a, _ := tracedRun(t, CREST, 11)
	b, _ := tracedRun(t, CREST, 11)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs with the same seed produced different traces")
	}
	c, _ := tracedRun(t, CREST, 12)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceChromeExportAllEngines(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			out, snap := tracedRun(t, system, 3)
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(out, &doc); err != nil {
				t.Fatalf("invalid Chrome JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("no trace events")
			}
			spans := snap.Spans()
			if len(spans) == 0 {
				t.Fatal("no spans reconstructed")
			}
			committed := 0
			for i := range spans {
				if spans[i].Committed {
					committed++
				}
			}
			if committed == 0 {
				t.Fatal("no committed spans in the trace")
			}
		})
	}
}

// TestTraceReconcilesWithTable2 runs exactly one uncontended SmallBank
// transaction per engine and checks that the span's per-phase RTT and
// verb attribution sums to the fabric's own counters — the measurement
// behind Table 2.
func TestTraceReconcilesWithTable2(t *testing.T) {
	for _, system := range []SystemKind{CREST, CRESTBase, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			rec := trace.NewRecorder(0)
			cfg := shortCfg(system, tinySmallBank)
			cfg.Trace = rec
			verbs, err := oneTxnVerbs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spans := rec.Snapshot().Spans()
			if len(spans) != 1 {
				t.Fatalf("spans = %d, want 1", len(spans))
			}
			sv := spans[0]
			if !sv.Committed || len(sv.Attempts) != 1 {
				t.Fatalf("uncontended txn: %+v", sv)
			}
			a := sv.Attempts[0]
			if got, want := uint64(a.TotalRTTs()), verbs.RTTs; got != want {
				t.Errorf("trace RTTs = %d, fabric counted %d", got, want)
			}
			totalVerbs := 0
			for ph := trace.PhaseExec; ph < trace.NumPhases; ph++ {
				totalVerbs += a.Verbs[ph]
			}
			if got, want := uint64(totalVerbs), verbs.Total(); got != want {
				t.Errorf("trace verbs = %d, fabric counted %d", got, want)
			}
			// Every round-trip belongs to a phase that also spent
			// virtual time there. (Net can exceed the phase's wall
			// duration: PostMulti charges each concurrent replica batch
			// its own round-trip while the coordinator waits once.)
			for ph := trace.PhaseExec; ph < trace.NumPhases; ph++ {
				if a.RTT[ph] > 0 && (a.Dur[ph] <= 0 || a.Net[ph] <= 0) {
					t.Errorf("phase %v: %d RTTs but dur %v, net %v", ph, a.RTT[ph], a.Dur[ph], a.Net[ph])
				}
			}
		})
	}
}

// TestRTTEventsCarryEveryVerb: the trace records one event per doorbell
// batch, and Spans() counts a phase's verbs and bytes from those events
// alone, so the batches of a run whose ring does not wrap must add up
// to the fabric's own counters — one event per round trip, every verb
// in some event's Ops, and every payload byte (8 per CAS) in some
// event's Bytes — on every engine and workload, unsharded and on four
// shard groups run by two workers.
func TestRTTEventsCarryEveryVerb(t *testing.T) {
	workloads := []struct {
		name string
		gen  func() workload.Generator
	}{{"smallbank", tinySmallBank}, {"ycsb", tinyYCSB}, {"tpcc", tinyTPCC}}
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for _, wl := range workloads {
			for _, sharded := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/sharded=%v", system, wl.name, sharded), func(t *testing.T) {
					rec := trace.NewRecorder(0)
					cfg := shortCfg(system, wl.gen)
					cfg.Seed = 7
					cfg.Duration = 2 * sim.Millisecond
					cfg.Warmup = 200 * sim.Microsecond
					cfg.Trace = rec
					if sharded {
						cfg.MemNodes, cfg.Shards, cfg.Placement, cfg.Workers = 2, 4, "modulo", 2
					}
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					snap := rec.Snapshot()
					if snap.Dropped != 0 {
						t.Fatalf("the ring dropped %d events", snap.Dropped)
					}
					var rtts, ops, payload uint64
					for i := range snap.Events {
						if e := &snap.Events[i]; e.Kind == trace.KindRTT {
							rtts++
							ops += uint64(e.Ops)
							payload += uint64(e.Bytes)
						}
					}
					v := res.Verbs
					if rtts == 0 || rtts != v.RTTs {
						t.Errorf("%d RTT events, the fabric counted %d round trips", rtts, v.RTTs)
					}
					if ops != v.Total() {
						t.Errorf("RTT events carry %d verbs, the fabric counted %d", ops, v.Total())
					}
					if want := v.BytesRead + v.BytesWrite + 8*(v.CASes+v.MaskedCASes); payload != want {
						t.Errorf("RTT events carry %d bytes, the fabric counted %d", payload, want)
					}
				})
			}
		}
	}
}
