package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"crest/internal/flight"
	"crest/internal/sim"
)

// TestFlightRunByteIdenticalToPlainRun is the flight recorder's
// half of the observability contract: attaching it must not change
// the simulated schedule of any engine. Events counts every scheduler
// dispatch, so equality there pins the whole event sequence, and
// Verbs/latencies pin the protocol outcome.
func TestFlightRunByteIdenticalToPlainRun(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			run := func(rec *flight.Recorder) Result {
				cfg := shortCfg(system, tinySmallBank)
				cfg.Duration = 2 * sim.Millisecond
				cfg.Warmup = 200 * sim.Microsecond
				cfg.Flight = rec
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			rec := flight.NewRecorder(flight.Options{})
			plain, recorded := run(nil), run(rec)
			if plain.Committed != recorded.Committed || plain.Aborted != recorded.Aborted {
				t.Fatalf("recording changed outcomes: %d/%d vs %d/%d",
					plain.Committed, plain.Aborted, recorded.Committed, recorded.Aborted)
			}
			if plain.Events != recorded.Events {
				t.Fatalf("recording changed the schedule: %d vs %d events", plain.Events, recorded.Events)
			}
			if plain.Verbs != recorded.Verbs {
				t.Fatalf("recording changed fabric traffic: %+v vs %+v", plain.Verbs, recorded.Verbs)
			}
			if plain.Lat.Avg() != recorded.Lat.Avg() || plain.Lat.P99() != recorded.Lat.P99() {
				t.Fatalf("recording changed latencies: %v/%v vs %v/%v",
					plain.Lat.Avg(), plain.Lat.P99(), recorded.Lat.Avg(), recorded.Lat.P99())
			}
			if len(rec.Snapshot().Txns) == 0 {
				t.Fatal("no flight records captured")
			}
		})
	}
}

// TestFlightBudgetSumsExactly is the additivity guarantee for every
// engine: each committed transaction's budget components sum exactly
// to its measured virtual-time latency, the recorder sees exactly the
// transactions the stats pipeline measured, and the slowest flight
// record is the slowest latency sample.
func TestFlightBudgetSumsExactly(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			rec := flight.NewRecorder(flight.Options{})
			cfg := shortCfg(system, tinySmallBank)
			cfg.Duration = 2 * sim.Millisecond
			cfg.Warmup = 200 * sim.Microsecond
			cfg.Flight = rec
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap := rec.Snapshot()
			if snap.Dropped != 0 {
				t.Fatalf("ring overflowed (%d dropped); widen TxnCapacity for this test", snap.Dropped)
			}
			committed, worst := 0, sim.Duration(0)
			for i := range snap.Txns {
				tx := &snap.Txns[i]
				if got, want := tx.Total(), tx.End.Sub(tx.Begin); got != want {
					t.Fatalf("txn %d budget sums to %v, elapsed is %v (%+v)", tx.ID, got, want, tx.Budget)
				}
				for c := flight.Component(0); c < flight.NumComponents; c++ {
					if tx.Budget[c] < 0 {
						t.Fatalf("txn %d has negative %v: %v", tx.ID, c, tx.Budget[c])
					}
				}
				if !tx.Committed {
					continue
				}
				committed++
				if tot := tx.Total(); tot > worst {
					worst = tot
				}
			}
			if uint64(committed) != res.Committed {
				t.Fatalf("flight saw %d committed txns, stats measured %d", committed, res.Committed)
			}
			if got, want := worst.Micros(), res.Lat.Percentile(100); got != want {
				t.Fatalf("slowest flight record %.3fµs, slowest latency sample %.3fµs", got, want)
			}
		})
	}
}

// TestFlightExportByteIdenticalAcrossWorkers: the flight exports —
// JSON and the rendered tail report — must not depend on how many OS
// threads executed the partitioned simulation.
func TestFlightExportByteIdenticalAcrossWorkers(t *testing.T) {
	export := func(workers int) (js, tail []byte) {
		rec := flight.NewRecorder(flight.Options{})
		cfg := shardedCfg(CREST, 3, "modulo")
		cfg.Workers = workers
		cfg.Flight = rec
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		var jsBuf, tailBuf bytes.Buffer
		if err := flight.WriteJSON(&jsBuf, snap); err != nil {
			t.Fatal(err)
		}
		if err := flight.WriteTail(&tailBuf, snap, 3); err != nil {
			t.Fatal(err)
		}
		return jsBuf.Bytes(), tailBuf.Bytes()
	}
	js1, tail1 := export(1)
	for _, workers := range []int{2, 8} {
		js, tail := export(workers)
		if !bytes.Equal(js1, js) {
			t.Fatalf("flight JSON differs between workers=1 and workers=%d", workers)
		}
		if !bytes.Equal(tail1, tail) {
			t.Fatalf("tail report differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestFlightTailReportEndToEnd: a contended run renders a budget
// decomposition table and a critical path for its worst outlier.
func TestFlightTailReportEndToEnd(t *testing.T) {
	rec := flight.NewRecorder(flight.Options{})
	cfg := shortCfg(CREST, tinySmallBank)
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	cfg.Flight = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Exemplars) == 0 {
		t.Fatal("contended run captured no exemplars")
	}

	var tail bytes.Buffer
	if err := flight.WriteTail(&tail, snap, 3); err != nil {
		t.Fatal(err)
	}
	out := tail.String()
	for _, want := range []string{"component", "p50", "p99", "tail vs median", "critical path:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tail report missing %q:\n%s", want, out)
		}
	}

	var cp bytes.Buffer
	worst := snap.Exemplars[0]
	for _, e := range snap.Exemplars[1:] {
		if e.Total() > worst.Total() {
			worst = e
		}
	}
	if err := flight.WriteCritPath(&cp, snap, worst.ID); err != nil {
		t.Fatal(err)
	}
	cpOut := cp.String()
	for _, want := range []string{fmt.Sprintf("T%d", worst.ID), "budget:", "critical path:"} {
		if !strings.Contains(cpOut, want) {
			t.Fatalf("critical-path report missing %q:\n%s", want, cpOut)
		}
	}
	if err := flight.WriteCritPath(&cp, snap, 0); err == nil {
		t.Fatal("unknown txn id did not error")
	}
}
