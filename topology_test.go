package crest

import (
	"strings"
	"testing"
	"time"
)

// Every bad deployment is rejected by both entry points, NewCluster
// and RunBenchmark, with the same message: RunSpec's deployment
// validator is the one both go through.
func TestConfigValidationMessages(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative memory nodes", Config{MemNodes: -1},
			"memory nodes must be positive, got -1"},
		{"negative compute nodes", Config{CompNodes: -1},
			"compute nodes must be positive, got -1"},
		{"negative coordinators", Config{Coordinators: -2},
			"coordinators must be positive, got -2"},
		{"replicas equal nodes", Config{MemNodes: 1, Replicas: 1},
			"replicas must be in 0..0, below the 1 memory nodes, got 1"},
		{"negative replicas", Config{MemNodes: 2, Replicas: -1},
			"replicas must be in 0..1, below the 2 memory nodes, got -1"},
		{"negative shards", Config{Shards: -2},
			"shards must be in 1..64, got -2"},
		{"too many shards", Config{Shards: 65},
			"shards must be in 1..64, got 65"},
		{"unknown placement", Config{Placement: "round-robin"},
			`unknown placement "round-robin"`},
		{"negative metrics window", Config{ObserverOptions: ObserverOptions{Metrics: true, MetricsWindow: -7 * time.Microsecond}},
			"metrics window must not be negative, got -7µs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster(tc.cfg)
			if err == nil {
				t.Fatalf("NewCluster accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewCluster: error %q does not mention %q", err, tc.want)
			}
			c := tc.cfg
			_, runErr := RunBenchmark(BenchmarkConfig{RunSpec: RunSpec{
				System: c.System, Coordinators: c.Coordinators,
				MemNodes: c.MemNodes, CompNodes: c.CompNodes, Replicas: c.Replicas,
				Seed: c.Seed, Shards: c.Shards, Placement: c.Placement,
				Profile: "quick", Workload: WorkloadSpec{Kind: WorkloadSmallBank},
			}, ObserverOptions: c.ObserverOptions})
			if runErr == nil || runErr.Error() != err.Error() {
				t.Fatalf("RunBenchmark: error %q, NewCluster's %q", runErr, err)
			}
		})
	}
	// The unknown-placement error lists the valid policies.
	_, err := NewCluster(Config{Placement: "nope"})
	for _, name := range PlacementPolicies() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list policy %q", err, name)
		}
	}
}

// newShardedBank is newBankCluster with an explicit topology.
func newShardedBank(t *testing.T, system System, n int, cfg Config) *Cluster {
	t.Helper()
	cfg.System = system
	if cfg.Coordinators == 0 {
		cfg.Coordinators = 12
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []TableSpec{
		{ID: 1, Name: "savings", CellSizes: []int{8}, Capacity: n + 8},
		{ID: 2, Name: "checking", CellSizes: []int{8, 8}, Capacity: n + 8},
	} {
		if err := c.CreateTable(spec); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		if err := c.Load(1, Key(k), [][]byte{U64(100, 8)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Load(2, Key(k), [][]byte{U64(100, 8), U64(0, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

// Every engine runs correctly on a multi-group topology under every
// placement policy: transfers across the whole key space commit and
// conserve money even when they span shard groups.
func TestShardedClusterConservesMoney(t *testing.T) {
	for _, system := range []System{SystemCREST, SystemFORD, SystemMotor} {
		for _, pol := range PlacementPolicies() {
			t.Run(string(system)+"/"+pol, func(t *testing.T) {
				cfg := Config{Shards: 3, MemNodes: 2, Placement: pol}
				if pol == "hotspot" {
					cfg.PlacementHotKeys = []PlacementHotKey{{Table: 2, Key: 0, Shard: 0}, {Table: 2, Key: 1, Shard: 0}}
				}
				c := newShardedBank(t, system, 12, cfg)
				var txns []*Txn
				for i := 0; i < 24; i++ {
					txns = append(txns, transfer(Key(i%12), Key((i+5)%12), 3))
				}
				results, err := c.ExecuteAll(txns...)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if !r.Committed {
						t.Fatalf("txn %d did not commit", i)
					}
				}
				total := uint64(0)
				for k := 0; k < 12; k++ {
					row, err := c.ReadRow(2, Key(k), 0)
					if err != nil {
						t.Fatal(err)
					}
					total += GetU64(row[0])
				}
				if total != 1200 {
					t.Fatalf("money not conserved: %d", total)
				}
			})
		}
	}
}

// The sharded topology keeps the simulation deterministic: same seed,
// same virtual end time.
func TestShardedClusterDeterminism(t *testing.T) {
	run := func() int64 {
		c := newShardedBank(t, SystemCREST, 8, Config{Shards: 2, MemNodes: 2, Placement: "modulo"})
		var txns []*Txn
		for i := 0; i < 16; i++ {
			txns = append(txns, transfer(Key(i%4), Key(4+(i%4)), 2))
		}
		if _, err := c.ExecuteAll(txns...); err != nil {
			t.Fatal(err)
		}
		return int64(c.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different virtual end times: %d vs %d", a, b)
	}
}

// PlacementSeedFromWhy turns a recorded contention snapshot into a
// hotspot-policy seed pinning the hottest keys to shard group 0.
func TestPlacementSeedFromWhy(t *testing.T) {
	c := newShardedBank(t, SystemCREST, 8, Config{Shards: 2, MemNodes: 2, Placement: "modulo", ObserverOptions: ObserverOptions{Why: true}})
	var txns []*Txn
	for i := 0; i < 64; i++ {
		txns = append(txns, transfer(Key(i%2), Key((i+1)%2), 1))
	}
	if _, err := c.ExecuteAll(txns...); err != nil {
		t.Fatal(err)
	}
	seed := PlacementSeedFromWhy(c.WhySnapshot(), 4)
	if len(seed) == 0 {
		t.Fatal("contended run produced no hotspot seed")
	}
	if len(seed) > 4 {
		t.Fatalf("limit 4 returned %d keys", len(seed))
	}
	for _, hk := range seed {
		if hk.Shard != 0 {
			t.Fatalf("seed pins %+v away from shard 0", hk)
		}
	}
}
