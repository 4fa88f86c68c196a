package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// digestSet is the sha256 of every schema-versioned observer export of
// one run plus a fingerprint of the run's simulated-clock result.
type digestSet struct {
	chrome, metrics, why, flight, result string
}

// observerDigests is the cross-commit golden of the observer exports.
// It was generated at commit f3b759e ("PR 11: crestperf"), before the
// observer seam was consolidated, and pins the bytes every later
// refactor of trace / metrics / causality / flight and their wiring
// must reproduce. A deliberate change of an export format re-pins it in
// a commit of its own; a refactor never touches it.
var observerDigests = map[string]digestSet{
	"crest/shards1": {
		chrome:  "cd0a15a261ae190a054621239061f1d073fd4d2ac6d1b4f267ab6677e33b037c",
		metrics: "aadd555dae38672967db45a2365e9252beca27d4c2477c182f6d169ffeb8d636",
		why:     "f97609a1a18d07fdc147307186a36e6467478906666b3dbecb7a6fe1c63477b0",
		flight:  "bb28f051ee917219bb012c6be44748e9c608624264c6979959d8da9b4a0f6c94",
		result:  "23fec367fc2089e9cde0d1e3b62978b3d7fe8bdaac64b5f4538eb826aa20dcd7",
	},
	"crest/shards4-workers2": {
		chrome:  "cda459ee431afd91fa94ace04fb2879569763ee3306a6b01d447e22bcf220540",
		metrics: "6ea58bbf14721728d9994148e70dbcce0a592d7af32d5559e4eee646b2f653c8",
		why:     "d46c9de933af83313830790bde541c0203b60edcfbb3c199b3660e7fd831bcdf",
		flight:  "4dce1634de8962adb7730b6bc1e468e89058927f8cf438dfd41103e00f737e7e",
		result:  "e4ec7342b830b7b5b1a6da5cdd8e08177f2ef3e42b9e19bd6631f8a7af1b8018",
	},
	"ford/shards1": {
		chrome:  "8b8188e4f86db9a0160a174b276b945f35495522c78b11e5b005f93f505ede2f",
		metrics: "28b13908c1beae9270cf995e154fb74a8ac1764492eb5484beb64a6ad4ab004a",
		why:     "4ff74d2f051a9ddefc07800b84eed74236b528ae36936e3369e4fd8d7f6138c1",
		flight:  "cf2f011524097fe3ed2132141b3310b9782dacabb29a23199b43b856b05bed64",
		result:  "e54960267d60040f944f1581b7fd205bf2fa6a5236f32091a6194353533a9542",
	},
	"ford/shards4-workers2": {
		chrome:  "fc69c43fcb791909cdcdd611d413843179c3bf7e1dbbe47521dcc814dce0617d",
		metrics: "eb19f23d5d518bd6feb93d00ddea015e209b70b50b93f48eb45843e77497b50a",
		why:     "4b5ee04d3f28e7e6cf350f5ca63087022726ed8822a700be6d3588752da17bbe",
		flight:  "18811a5ca76a5e9ed82ed77b8f04ba3043f3dece8088550331725f26875ed471",
		result:  "f7d1aeb3e244e4a3e96f4aaa8c5a75f7e129745babf0cb29de9fca996ee617bf",
	},
	"motor/shards1": {
		chrome:  "b9f8e7e9c3791cc0a0f2196c218d558fc7f9b3cb2e433fb4290ffb496bf1bb30",
		metrics: "0eba71c3dbf56f2820e64bec4b05be2a46595893c22f8edb73e4108ed6a00dfc",
		why:     "481ef54e3ed05ae75e220a588570814bd26849add2572cf0693726524966f765",
		flight:  "852a6156fb84bcd980771f6c777192c31f8c782889825affd4e9f5f1952a748f",
		result:  "9276752b40a12a72e69013b898cfb2df7eecc3d0bc93f220697f016a578cef9d",
	},
	"motor/shards4-workers2": {
		chrome:  "6cc6dbfbad266cb18ce22fac53cbb848cb50b7290c907999c8d74810039590c6",
		metrics: "316897d292c8e185b32f8b065987c3e05aa6cce0fd04f0221c5f739d918572cf",
		why:     "decc528d041f34a4bddf690afd17737a3f46fd879b61f98d50bd556f805c0370",
		flight:  "3aec95b23eab27cece8267a07ea439078ff50aa32ed58722c144ce9490fca12d",
		result:  "81a332e84bbeafac372e710d5d8aad13632824e519bd7a515cd33e45b0feaebe",
	},
}

// digestCfg is the small fixed configuration behind observerDigests.
// The unsharded topology runs with rings small enough to evict (so the
// digests cover the wrapped-ring unroll); the sharded one runs four
// partitions on two workers with default capacities (so they cover the
// family merge).
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
// with all four recorders attached and compares the sha256 of the
// Chrome-trace JSON, crest-metrics/v1, crest-why/v1 and crest-flight/v1
// exports, and of the result fingerprint, against observerDigests (see
// there for the generating commit).
func TestObserverExportDigests(t *testing.T) {
	var regen strings.Builder
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
			got := digestSet{
				chrome:  sha(t, func(w io.Writer) error { return trace.WriteChromeTrace(w, cfg.Trace.Snapshot()) }),
				metrics: sha(t, func(w io.Writer) error { return metrics.WriteJSON(w, cfg.Metrics.Snapshot()) }),
				why:     sha(t, func(w io.Writer) error { return causality.WriteJSON(w, cfg.Why.Snapshot()) }),
				flight:  sha(t, func(w io.Writer) error { return flight.WriteJSON(w, cfg.Flight.Snapshot()) }),
				result: sha(t, func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "%d %d %d %+v %x %x %x %x", res.Committed, res.Aborted, res.Events,
						res.Verbs, res.ThroughputKOPS(), res.Lat.P50(), res.Lat.P99(), res.Lat.P999())
					return err
				}),
			}
			if !sharded && (cfg.Trace.Dropped() == 0 || cfg.Why.Dropped() == 0 || cfg.Flight.Dropped() == 0) {
				t.Errorf("%s: a ring did not evict (trace %d, why %d, flight %d dropped): the digests no longer cover the wrapped unroll",
					name, cfg.Trace.Dropped(), cfg.Why.Dropped(), cfg.Flight.Dropped())
			}
			if want := observerDigests[name]; got != want {
				t.Errorf("%s: export digests differ from the pinned table:\n got %+v\nwant %+v", name, got, want)
			}
			fmt.Fprintf(&regen, "\t%q: {\n\t\tchrome:  %q,\n\t\tmetrics: %q,\n\t\twhy:     %q,\n\t\tflight:  %q,\n\t\tresult:  %q,\n\t},\n",
				name, got.chrome, got.metrics, got.why, got.flight, got.result)
		}
	}
	if t.Failed() {
		t.Logf("table computed by this run:\n%s", regen.String())
	}
}
