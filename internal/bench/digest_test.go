package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
	"crest/internal/workload"
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
// a commit of its own; a refactor never touches it. One re-pin so far:
// the metrics sha of the three shards4 rows, when
// crest_rdma_cross_part_verbs_total stopped counting a mixed post's own
// partition's batches as crossed (PR 15).
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
		metrics: "a1f1f83bbd278b5a919012a80d382f4eb6da11663801d6ed8abdfd79c871a26c",
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
		metrics: "3112c8b00961418330ec9dbe117cdd3d5eacad3d80ed75523b44de4f3e9015cb",
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
		metrics: "027fdc45259743c93351fb6235fa3aa6622b880153bd44bb056e78406e36a22a",
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
			exportsMatchEncodingJSON(t, name, cfg.Trace.Snapshot(), cfg.Why.Snapshot(), cfg.Flight.Snapshot())
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

// strictDigests is the cross-commit golden of the strict engines: the
// record-level baselines and CREST's Base / +Cell factor-analysis
// variants, which all run the strict attempt driver. It was generated
// at commit 8b3c6aa ("Observer seam: ..."), before FORD, Motor and
// CREST's direct path were folded onto one driver, and pins what that
// driver must reproduce: the result fingerprint (commits, aborts, false
// aborts and abort reasons, cross-shard attempts, events, verbs, KOPS,
// latency percentiles, per-phase averages) and the sha256 of the Chrome
// trace and crest-why/v1 exports (event order and lock masks). A
// refactor never touches it; a deliberate protocol change re-pins it in
// a commit of its own.
var strictDigests = map[string]string{
	"ford/smallbank/shards1":                "1344 482 45 [0 374 108 0 0 0] 0 0 18917 {Reads:6492 Writes:8070 CASes:6509 MaskedCASes:0 RTTs:12096 BytesRead:323817 BytesWrite:439000} 0x1.cp+09 0x1.e3b645a1cac08p+02 0x1.4a7ba5e353f7dp+08 0x1.25db95810624ep+10 0x1.003a485cd7b9p+02 0x1.086db6db6db6ep+00 0x1.f2a9dcb24605ap+01 b9b45e57859d 0a3e653da3b9",
	"ford/tpcc/shards1":                     "347 520 235 [0 377 143 0 0 0] 0 0 21547 {Reads:25578 Writes:10646 CASes:24003 MaskedCASes:0 RTTs:7931 BytesRead:2719164 BytesWrite:1883520} 0x1.ceaaaaaaaaaaap+07 0x1.8beb851eb851fp+04 0x1.c0f74bc6a7efap+09 0x1.23d3126e978d5p+10 0x1.61ec61b6bb7bcp+04 0x1.b4f9e4339568ep+01 0x1.454337d3c22bap+02 4362f8d8fd15 d0fd1ade8aab",
	"ford/ycsb/shards1":                     "633 538 120 [0 139 399 0 0 0] 0 0 15090 {Reads:11400 Writes:4600 CASes:5531 MaskedCASes:0 RTTs:7718 BytesRead:1443264 BytesWrite:1291680} 0x1.a6p+08 0x1.1266666666666p+03 0x1.92fced916872bp+09 0x1.241ad0e560419p+10 0x1.d4e56a31f2a9fp+02 0x1.43c474b846531p+01 0x1.4723f7c19889fp+01 c10fed0ac4bf 44e2b8bf9d06",
	"ford/smallbank/shards4-workers2":       "1001 459 322 [0 346 113 0 0 0] 966 283 23597 {Reads:5618 Writes:8666 CASes:5437 MaskedCASes:0 RTTs:12050 BytesRead:279303 BytesWrite:557234} 0x1.4daaaaaaaaaaap+09 0x1.313f7ced91687p+03 0x1.12a5e353f7ceep+09 0x1.06df0a3d70a3dp+10 0x1.14f817a6b6edcp+02 0x1.2bb1824f11648p+00 0x1.539b5083b1a8p+02 fc69c43fcb79 4b5ee04d3f28",
	"motor/smallbank/shards1":               "1427 532 43 [0 512 20 0 0 0] 0 0 19756 {Reads:6343 Writes:19664 CASes:7684 MaskedCASes:0 RTTs:12530 BytesRead:1023912 BytesWrite:484552} 0x1.dbaaaaaaaaaabp+09 0x1.f178d4fdf3b64p+02 0x1.62b916872b021p+08 0x1.d2edf3b645a1dp+09 0x1.173ee7c2e264cp+02 0x1.2485d5521681bp-01 0x1.f834231daf0d9p+01 b3dbbefb225c cd42d9e7c0fa",
	"motor/tpcc/shards1":                    "358 562 203 [0 435 127 0 0 0] 0 0 21437 {Reads:25776 Writes:29916 CASes:24952 MaskedCASes:0 RTTs:7847 BytesRead:9812772 BytesWrite:1880096} 0x1.dd55555555555p+07 0x1.9dfbe76c8b439p+04 0x1.ee4dd2f1a9fbep+09 0x1.8e7810624dd2fp+10 0x1.79e4a4cd13188p+04 0x1.88d1b267a2baep+01 0x1.91726cc2ea289p+02 4bacafb90d12 1b0437bb4993",
	"motor/ycsb/shards1":                    "720 574 358 [0 574 0 0 0 0] 0 0 15290 {Reads:8978 Writes:14040 CASes:10164 MaskedCASes:0 RTTs:8237 BytesRead:6320512 BytesWrite:1516320} 0x1.ep+08 0x1.2589374bc6a7fp+03 0x1.f70dd2f1a9fbep+08 0x1.6416872b020c5p+09 0x1.3df456789abcep+03 0x0p+00 0x1.5a8ae66093178p+01 22f2936c9ad0 4b4df7db905d",
	"motor/smallbank/shards4-workers2":      "1181 486 334 [0 473 13 0 0 0] 1220 390 26369 {Reads:5520 Writes:19672 CASes:6628 MaskedCASes:0 RTTs:13982 BytesRead:893888 BytesWrite:648166} 0x1.89aaaaaaaaaabp+09 0x1.371a9fbe76c8bp+03 0x1.c7dbe76c8b439p+08 0x1.ff43333333333p+09 0x1.20c47107b9bbcp+02 0x1.25d9ac22625b2p-01 0x1.5e538f7badef3p+02 6cc6dbfbad26 decc528d041f",
	"crest-base/smallbank/shards1":          "1267 494 37 [0 424 70 0 0 0] 0 0 19394 {Reads:6692 Writes:12926 CASes:0 MaskedCASes:6617 RTTs:12362 BytesRead:774080 BytesWrite:517512} 0x1.a655555555555p+09 0x1.ebf7ced916873p+02 0x1.6603126e978d5p+08 0x1.ec23b645a1cacp+09 0x1.23d32c6c8a05cp+02 0x1.053510ba71a82p+00 0x1.eeb1564adb33dp+01 5120e42b8632 19e697379dbc",
	"crest-base/tpcc/shards1":               "428 621 133 [0 565 56 0 0 0] 0 0 20508 {Reads:24942 Writes:75754 CASes:0 MaskedCASes:23825 RTTs:8355 BytesRead:9468224 BytesWrite:1515968} 0x1.1d55555555555p+08 0x1.13978d4fdf3b6p+05 0x1.68ba1cac08312p+09 0x1.227c9ba5e353fp+10 0x1.51acf5d628d86p+04 0x1.0d09be0afc892p+01 0x1.1206697661ce7p+03 c05f08e61cfd ea932ec3b9c2",
	"crest-base/ycsb/shards1":               "646 606 179 [0 336 270 0 0 0] 0 0 15769 {Reads:11770 Writes:7650 CASes:0 MaskedCASes:5596 RTTs:7997 BytesRead:2824320 BytesWrite:411400} 0x1.aeaaaaaaaaaabp+08 0x1.1b1a9fbe76c8bp+03 0x1.67b83126e978dp+09 0x1.ba96e978d4fdfp+09 0x1.53f6eb9a38acp+03 0x1.179c53918c288p+01 0x1.2e5aa1c5e1e86p+01 db6985345e9d d3ac6a0992f2",
	"crest-base/smallbank/shards4-workers2": "1041 515 372 [0 472 43 0 0 0] 1100 368 25739 {Reads:5905 Writes:13970 CASes:0 MaskedCASes:6040 RTTs:13341 BytesRead:689472 BytesWrite:766200} 0x1.5afffffffffffp+09 0x1.34ed916872b02p+03 0x1.0c0cccccccccdp+09 0x1.c415c28f5c28fp+09 0x1.3b0028cb744fap+02 0x1.f5ac25e81cd14p-01 0x1.5fcc13f6ed37cp+02 b71c9e5599ef 61a217e5322a",
	"crest-cell/smallbank/shards1":          "1267 494 37 [0 424 70 0 0 0] 0 0 19394 {Reads:6692 Writes:12926 CASes:0 MaskedCASes:6617 RTTs:12362 BytesRead:774080 BytesWrite:517512} 0x1.a655555555555p+09 0x1.ebf7ced916873p+02 0x1.6603126e978d5p+08 0x1.ec23b645a1cacp+09 0x1.23d32c6c8a05cp+02 0x1.053510ba71a82p+00 0x1.eeb1564adb33dp+01 5120e42b8632 19e697379dbc",
	"crest-cell/tpcc/shards1":               "663 740 28 [0 726 14 0 0 0] 0 0 26534 {Reads:34571 Writes:112302 CASes:0 MaskedCASes:28716 RTTs:11653 BytesRead:11807360 BytesWrite:2251156} 0x1.bap+08 0x1.b789374bc6a7fp+04 0x1.95f4395810625p+08 0x1.6f1999999999ap+09 0x1.0bd218fd6bb29p+04 0x1.4a185f43b1f8ep+01 0x1.09935c38c68f7p+03 b0a1f0172e70 e4dc8460191a",
	"crest-cell/ycsb/shards1":               "854 527 13 [0 216 311 0 0 0] 0 0 18663 {Reads:13549 Writes:10854 CASes:0 MaskedCASes:5457 RTTs:9276 BytesRead:3211328 BytesWrite:583704} 0x1.1caaaaaaaaaaap+09 0x1.194fdf3b645a2p+03 0x1.8a7eb851eb852p+08 0x1.1e6cfdf3b645ap+10 0x1.26e5d3ac4bb92p+03 0x1.f79f44e86357p+00 0x1.47f21c2c5628fp+01 fc3b94aa2efc 45c726bc66d9",
	"crest-cell/smallbank/shards4-workers2": "1041 515 372 [0 472 43 0 0 0] 1100 368 25739 {Reads:5905 Writes:13970 CASes:0 MaskedCASes:6040 RTTs:13341 BytesRead:689472 BytesWrite:766200} 0x1.5afffffffffffp+09 0x1.34ed916872b02p+03 0x1.0c0cccccccccdp+09 0x1.c415c28f5c28fp+09 0x1.3b0028cb744fap+02 0x1.f5ac25e81cd14p-01 0x1.5fcc13f6ed37cp+02 b71c9e5599ef 61a217e5322a",
}

// strictDigestCfg is the configuration behind one strictDigests row.
// tinyYCSB (theta 0.99, half writes) reaches Motor's locked-read refetch
// and the direct path's snapshot-consistency refetch with its RNG draw;
// tinyTPCC runs multi-block transactions; the sharded SmallBank row
// runs four partitions on two workers through the cross-shard prepare.
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

// TestStrictEngineDigests runs {ford, motor, crest-base, crest-cell} on
// tiny SmallBank, TPC-C and YCSB unsharded, and on SmallBank at four
// shards and two workers, and compares each run's fingerprint against
// strictDigests (see there for the generating commit).
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
	var regen strings.Builder
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
			got := fmt.Sprintf("%d %d %d %v %d %d %d %+v %x %x %x %x %x %x %x %.12s %.12s",
				res.Committed, res.Aborted, res.FalseAborts, reasons, res.CrossShard, res.CrossShardAborts, res.Events,
				res.Verbs, res.ThroughputKOPS(), res.Lat.P50(), res.Lat.P99(), res.Lat.P999(),
				res.Phases.AvgExec(), res.Phases.AvgValidate(), res.Phases.AvgCommit(),
				sha(t, func(w io.Writer) error { return trace.WriteChromeTrace(w, cfg.Trace.Snapshot()) }),
				sha(t, func(w io.Writer) error { return causality.WriteJSON(w, cfg.Why.Snapshot()) }))
			if want := strictDigests[name]; got != want {
				t.Errorf("%s: fingerprint differs from the pinned table:\n got %s\nwant %s", name, got, want)
			}
			fmt.Fprintf(&regen, "\t%q: %q,\n", name, got)
		}
	}
	if t.Failed() {
		t.Logf("table computed by this run:\n%s", regen.String())
	}
}
