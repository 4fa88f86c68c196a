package bench

import (
	"slices"
	"strings"
	"testing"

	"crest/internal/causality"
	"crest/internal/layout"
	"crest/internal/metrics"
	"crest/internal/placement"
	"crest/internal/sim"
	"crest/internal/trace"
)

func shardedCfg(system SystemKind, shards int, pl string) Config {
	cfg := shortCfg(system, tinySmallBank)
	cfg.MemNodes = 2
	cfg.Shards = shards
	cfg.Placement = pl
	cfg.Duration = 3 * sim.Millisecond
	cfg.Warmup = 500 * sim.Microsecond
	return cfg
}

// Satellite guarantee: metering a sharded run must not change the
// simulated schedule — the per-shard gauges and cross-shard counters
// are observers, not participants.
func TestShardedMeteredByteIdenticalToPlain(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			run := func(reg *metrics.Registry) Result {
				cfg := shardedCfg(system, 3, "modulo")
				cfg.Metrics = reg
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
			plain, metered := run(nil), run(reg)
			if plain.Events != metered.Events {
				t.Fatalf("metrics changed the schedule: %d vs %d events", plain.Events, metered.Events)
			}
			if plain.Verbs != metered.Verbs {
				t.Fatalf("metrics changed fabric traffic: %+v vs %+v", plain.Verbs, metered.Verbs)
			}
			if plain.Committed != metered.Committed || plain.Aborted != metered.Aborted ||
				plain.CrossShard != metered.CrossShard || plain.CrossShardAborts != metered.CrossShardAborts {
				t.Fatalf("metrics changed outcomes: %+v vs %+v", plain.Run, metered.Run)
			}

			snap := reg.Snapshot()
			if se := snap.Find("crest_txn_cross_shard_total", ""); se == nil || se.Total == 0 {
				t.Fatalf("cross-shard counter missing or empty on a 3-group run: %+v", se)
			}
			// Every shard group exposes labeled per-shard series.
			for _, labels := range []string{`shard="0"`, `shard="1"`, `shard="2"`} {
				if snap.Find("crest_shard_commits_total", labels) == nil {
					t.Fatalf("per-shard commit counter {%s} missing", labels)
				}
				if snap.Find("crest_shard_txn_active", labels) == nil {
					t.Fatalf("per-shard active gauge {%s} missing", labels)
				}
			}
		})
	}
}

// A single-group run must not grow new series: the historical metric
// set is part of the shards=1 byte-stability contract, and cross-shard
// counters stay zero.
func TestSingleGroupMetricsUnchanged(t *testing.T) {
	reg := metrics.NewRegistry(metrics.Options{Window: 100 * sim.Microsecond})
	cfg := shardedCfg(CREST, 1, "")
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossShard != 0 || res.CrossShardAborts != 0 {
		t.Fatalf("single-group run counted cross-shard txns: %d/%d", res.CrossShard, res.CrossShardAborts)
	}
	snap := reg.Snapshot()
	for i := range snap.Series {
		if strings.HasPrefix(snap.Series[i].Name, "crest_shard_") {
			t.Fatalf("single-group run exposes per-shard series %s{%s}", snap.Series[i].Name, snap.Series[i].Labels)
		}
	}
	if se := snap.Find("crest_txn_cross_shard_total", ""); se == nil {
		t.Fatal("cross-shard counter series should register (at zero) for schema stability")
	} else if se.Total != 0 {
		t.Fatalf("single-group cross-shard counter = %v", se.Total)
	}
}

// Scattering a skewed workload across groups by key modulo makes write
// transactions span groups; colocating the probed hot set (hotspot
// placement) brings a measurable share of them back to one group.
func TestHotspotPlacementReducesCrossShardShare(t *testing.T) {
	share := func(pl string) float64 {
		res, err := Run(shardedCfg(CREST, 4, pl))
		if err != nil {
			t.Fatal(err)
		}
		attempts := res.Committed + res.Aborted
		if attempts == 0 {
			t.Fatal("no attempts measured")
		}
		return float64(res.CrossShard) / float64(attempts)
	}
	modulo, hotspot := share("modulo"), share("hotspot")
	if modulo == 0 {
		t.Fatal("modulo placement produced no cross-shard transactions on 4 groups")
	}
	if hotspot >= modulo {
		t.Fatalf("hotspot placement did not reduce the cross-shard share: %.3f vs modulo %.3f", hotspot, modulo)
	}
}

// TestHotKeysFromOneEntryPerRecord: the why graph ranks hotspots per
// cell, so a record contended on two cells ranks twice. The hotspot
// seed pins records, so it keeps the record once, at its first rank,
// and the limit counts records.
func TestHotKeysFromOneEntryPerRecord(t *testing.T) {
	edge := func(table layout.TableID, key layout.Key, mask uint64) causality.Edge {
		return causality.Edge{Kind: causality.KindLockFail, Table: table, Key: key, Mask: mask}
	}
	s := &causality.Snapshot{Edges: []causality.Edge{
		edge(1, 5, 0b11), edge(1, 5, 0b11), edge(1, 5, 0b11), // cells 0 and 1 rank first and second
		edge(1, 7, 0b1), edge(1, 7, 0b1),
		edge(2, 3, 0b1),
	}}
	if hs := s.Graph().Hotspots; len(hs) < 2 || hs[0].Key != 5 || hs[1].Key != 5 {
		t.Fatalf("ranking %+v: want record (1, 5) in the first two places", hs)
	}
	want := []placement.HotKey{{Table: 1, Key: 5}, {Table: 1, Key: 7}}
	if got := HotKeysFrom(s, 2); !slices.Equal(got, want) {
		t.Errorf("HotKeysFrom(2) = %v, want %v", got, want)
	}
	want = append(want, placement.HotKey{Table: 2, Key: 3})
	if got := HotKeysFrom(s, 0); !slices.Equal(got, want) {
		t.Errorf("HotKeysFrom(0) = %v, want %v", got, want)
	}
}

// RunSpec keys: pre-sharding specs keep their exact historical keys
// (golden compatibility), sharded specs append the topology
// segments.
func TestRunSpecKeyTopologySegments(t *testing.T) {
	p := Quick()
	base := p.Spec(CREST, SmallBankSpec(0.99), 24)
	want := "crest|smallbank(theta=0.9900)|c24|mn2|cn3|r1|d5000000|w1000000|s1|pquick|oncefalse"
	if got := base.Key(); got != want {
		t.Fatalf("classic key changed:\n got %s\nwant %s", got, want)
	}
	one := base
	one.Shards = 1
	one.Placement = "hash"
	if one.Key() != want {
		t.Fatalf("explicit shards=1/hash changed the key: %s", one.Key())
	}
	sharded := base
	sharded.Shards = 3
	sharded.Placement = "modulo"
	if got := sharded.Key(); got != want+"|sh3|plmodulo" {
		t.Fatalf("sharded key = %s", got)
	}
	polOnly := base
	polOnly.Placement = "range"
	if got := polOnly.Key(); got != want+"|sh1|plrange" {
		t.Fatalf("placement-only key = %s", got)
	}
}

// Transaction ids are unique system-wide even when a partition holds
// several compute nodes (here 3 compute nodes on 2 shard groups): they
// key the recovery log and every trace span.
func TestPartitionedTxnIDsUniqueAcrossCoordinators(t *testing.T) {
	cfg := shardedCfg(CREST, 2, "modulo")
	cfg.Trace = trace.NewRecorder(0)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	owner := map[uint64]uint32{}
	for _, e := range cfg.Trace.Snapshot().Events {
		if e.Txn == 0 {
			continue
		}
		if c, seen := owner[e.Txn]; seen && c != e.Coord {
			t.Fatalf("txn id %d drawn by coordinators %d and %d", e.Txn, c, e.Coord)
		}
		owner[e.Txn] = e.Coord
	}
	if len(owner) == 0 {
		t.Fatal("trace carries no transaction ids")
	}
}

// TestMemberStreamsArriveSorted is the premise of trace.MergeByTime's
// k-way merge: a partition's child recorder is written on that
// partition's clock, which never runs backwards, so its ring unrolls in
// (time, seq) order and needs no sorting — for every trace event,
// causality edge and causality transaction node of a sharded run, on
// every engine. (A child's Snapshot is its own ring, oldest first.) The
// root of a family records nothing itself: the children account for
// every event.
func TestMemberStreamsArriveSorted(t *testing.T) {
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		cfg := digestCfg(system, true)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		events, edges := 0, 0
		for part := 0; part < cfg.Shards; part++ {
			tr := cfg.Trace.Shard(part, cfg.Shards).Snapshot()
			events += len(tr.Events)
			for i := 1; i < len(tr.Events); i++ {
				if tr.Events[i].At < tr.Events[i-1].At {
					t.Fatalf("%s partition %d: trace event %d at %v follows one at %v", system, part, i, tr.Events[i].At, tr.Events[i-1].At)
				}
			}
			why := cfg.Why.Shard(part, cfg.Shards).Snapshot()
			edges += len(why.Edges)
			for i := 1; i < len(why.Edges); i++ {
				a, b := &why.Edges[i-1], &why.Edges[i]
				if b.At < a.At || b.At == a.At && b.Seq <= a.Seq {
					t.Fatalf("%s partition %d: edge %d (at %v, seq %d) follows (at %v, seq %d)", system, part, i, b.At, b.Seq, a.At, a.Seq)
				}
			}
			for i := 1; i < len(why.Txns); i++ {
				a, b := &why.Txns[i-1], &why.Txns[i]
				if b.Start < a.Start || b.Start == a.Start && b.ID <= a.ID {
					t.Fatalf("%s partition %d: txn %d (start %v, id %d) follows (start %v, id %d)", system, part, i, b.Start, b.ID, a.Start, a.ID)
				}
			}
		}
		if events == 0 || events != cfg.Trace.Len() || edges != cfg.Why.Len() {
			t.Errorf("%s: children hold %d events and %d edges, the family %d and %d", system, events, edges, cfg.Trace.Len(), cfg.Why.Len())
		}
	}
}
