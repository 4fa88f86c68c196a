package bench

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"crest/internal/metrics"
	"crest/internal/sim"
)

// TestMetricsRunByteIdenticalToPlainRun is the PR's golden guarantee,
// mirroring tracing's: enabling metrics must not change the simulated
// schedule. Events counts every scheduler dispatch, so equality there
// pins the whole event sequence, and Verbs/latencies pin the protocol
// outcome.
func TestMetricsRunByteIdenticalToPlainRun(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			run := func(reg *metrics.Registry) Result {
				cfg := shortCfg(system, tinySmallBank)
				cfg.Duration = 2 * sim.Millisecond
				cfg.Warmup = 200 * sim.Microsecond
				cfg.Metrics = reg
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
			plain, metered := run(nil), run(reg)
			if plain.Committed != metered.Committed || plain.Aborted != metered.Aborted {
				t.Fatalf("metrics changed outcomes: %d/%d vs %d/%d",
					plain.Committed, plain.Aborted, metered.Committed, metered.Aborted)
			}
			if plain.Events != metered.Events {
				t.Fatalf("metrics changed the schedule: %d vs %d events", plain.Events, metered.Events)
			}
			if plain.Verbs != metered.Verbs {
				t.Fatalf("metrics changed fabric traffic: %+v vs %+v", plain.Verbs, metered.Verbs)
			}
			if plain.Lat.Avg() != metered.Lat.Avg() || plain.Lat.P99() != metered.Lat.P99() {
				t.Fatalf("metrics changed latencies: %v/%v vs %v/%v",
					plain.Lat.Avg(), plain.Lat.P99(), metered.Lat.Avg(), metered.Lat.P99())
			}

			// The run must also have produced a non-empty time-series.
			snap := reg.Snapshot()
			if len(snap.Times) == 0 {
				t.Fatal("no windows sealed")
			}
			for _, name := range []string{
				"crest_txn_commits_total",
				"crest_txn_attempts_total",
				"crest_sim_dispatches_total",
				"crest_rdma_rtts_total",
			} {
				se := snap.Find(name, "")
				if se == nil {
					t.Fatalf("series %s missing", name)
				}
				if se.Total == 0 {
					t.Fatalf("series %s empty", name)
				}
				if len(se.Samples) != len(snap.Times) {
					t.Fatalf("series %s has %d samples for %d windows", name, len(se.Samples), len(snap.Times))
				}
			}
			// Contended SmallBank must show aborts broken down by reason
			// and fabric verbs in flight at some boundary.
			aborts := 0.0
			for i := range snap.Series {
				se := &snap.Series[i]
				if se.Name == "crest_txn_aborts_total" {
					aborts += se.Total
				}
			}
			if metered.Aborted > 0 && aborts == 0 {
				t.Fatal("run aborted but no crest_txn_aborts_total series counted")
			}
			if snap.Find("crest_rdma_inflight_verbs", "") == nil {
				t.Fatal("in-flight verbs gauge missing")
			}
		})
	}
}

// TestMetricsSnapshotRoundTripsThroughExporters drives a metered run
// through every exporter: CSV and JSON must round-trip the windowed
// series, and the Prometheus rendering must be non-empty text
// exposition output.
func TestMetricsSnapshotRoundTripsThroughExporters(t *testing.T) {
	reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
	cfg := shortCfg(CREST, tinySmallBank)
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	cfg.Metrics = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	var jsonBuf bytes.Buffer
	if err := metrics.WriteJSON(&jsonBuf, snap); err != nil {
		t.Fatal(err)
	}
	var back metrics.Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != len(snap.Series) || len(back.Times) != len(snap.Times) {
		t.Fatalf("JSON round trip lost data: %d/%d series, %d/%d windows",
			len(back.Series), len(snap.Series), len(back.Times), len(snap.Times))
	}

	var csvBuf bytes.Buffer
	if err := metrics.WriteCSV(&csvBuf, snap); err != nil {
		t.Fatal(err)
	}
	// encoding/csv validates the quoting (per-node label IDs contain
	// commas) and that every row has the header's column count.
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(rows) != 1+len(snap.Times) {
		t.Fatalf("CSV rows = %d, want %d", len(rows), 1+len(snap.Times))
	}
	if len(rows[0]) != 1+len(snap.Series) {
		t.Fatalf("CSV columns = %d, want %d", len(rows[0]), 1+len(snap.Series))
	}

	var promBuf bytes.Buffer
	if err := metrics.WritePrometheus(&promBuf, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(promBuf.String(), "# TYPE crest_txn_commits_total counter") {
		t.Fatalf("Prometheus output missing commit counter:\n%s", promBuf.String())
	}
}

// TestMetricsDeterministicAcrossRuns: the same seed must yield the
// byte-identical exported time-series.
func TestMetricsDeterministicAcrossRuns(t *testing.T) {
	export := func() []byte {
		reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
		cfg := shortCfg(CREST, tinySmallBank)
		cfg.Duration = 2 * sim.Millisecond
		cfg.Warmup = 200 * sim.Microsecond
		cfg.Metrics = reg
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := metrics.WriteCSV(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different metrics CSV")
	}
}
