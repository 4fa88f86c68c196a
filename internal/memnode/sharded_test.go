package memnode

import (
	"strings"
	"testing"

	"crest/internal/layout"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/sim"
)

func shardedPool(t *testing.T, shards, perGroup, replicas int, pol placement.Policy) *Pool {
	t.Helper()
	env := sim.NewEnv(1)
	p, err := NewShardedPool(rdma.NewFabric(env, rdma.DefaultParams()), shards, perGroup, 1<<20, replicas, pol)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewShardedPoolErrors(t *testing.T) {
	env := sim.NewEnv(1)
	fabric := rdma.NewFabric(env, rdma.DefaultParams())
	cases := []struct {
		name                       string
		shards, perGroup, replicas int
		want                       string
	}{
		{"zero shards", 0, 2, 1, "need at least one shard group, got 0"},
		{"too many shards", MaxShards + 1, 1, 0, "65 shard groups exceed the maximum of 64"},
		{"zero nodes", 2, 0, 0, "need at least one memory node"},
		{"replicas equal group", 2, 2, 2, "2 backups impossible with 2 nodes"},
		{"negative replicas", 1, 2, -1, "-1 backups impossible with 2 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewShardedPool(fabric, tc.shards, tc.perGroup, 1<<16, tc.replicas, nil)
			if err == nil {
				t.Fatal("bad topology accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Replication and primaries never leave a record's owning shard group,
// and a record's replica set never repeats a node.
func TestShardedRoutingStaysInGroup(t *testing.T) {
	const shards, perGroup = 3, 3
	p := shardedPool(t, shards, perGroup, 2, placement.Hash{})
	if p.NumNodes() != shards*perGroup {
		t.Fatalf("%d nodes, want %d", p.NumNodes(), shards*perGroup)
	}
	for k := layout.Key(0); k < 2000; k++ {
		g := p.ShardOf(5, k)
		if g < 0 || g >= shards {
			t.Fatalf("key %d on shard %d", k, g)
		}
		primary := p.PrimaryOf(5, k)
		if p.ShardOfNode(primary.ID) != g {
			t.Fatalf("key %d: primary mn%d outside its shard group %d", k, primary.ID, g)
		}
		replicas := p.ReplicaNodes(5, k)
		if len(replicas) != 3 || replicas[0] != primary {
			t.Fatalf("key %d: replica set %v", k, replicas)
		}
		seen := map[int]bool{}
		for _, n := range replicas {
			if seen[n.ID] {
				t.Fatalf("key %d: node mn%d repeated in replica set", k, n.ID)
			}
			seen[n.ID] = true
			if p.ShardOfNode(n.ID) != g {
				t.Fatalf("key %d: replica mn%d outside shard group %d", k, n.ID, g)
			}
		}
	}
}

// GroupNodes partitions the pool: group g owns the contiguous ID range
// [g·perGroup, (g+1)·perGroup).
func TestGroupNodesPartition(t *testing.T) {
	p := shardedPool(t, 4, 2, 0, nil)
	seen := map[int]bool{}
	for g := 0; g < 4; g++ {
		for i, n := range p.GroupNodes(g) {
			if want := g*2 + i; n.ID != want {
				t.Fatalf("group %d node %d has ID %d, want %d", g, i, n.ID, want)
			}
			if seen[n.ID] {
				t.Fatalf("node %d in two groups", n.ID)
			}
			seen[n.ID] = true
		}
	}
}

// With one shard group, LogNodes is the classic whole-pool ring — the
// byte-compatibility contract for pre-sharding topologies.
func TestLogNodesSingleGroupRing(t *testing.T) {
	p := shardedPool(t, 1, 5, 2, nil)
	nodes := p.Nodes()
	for id := 0; id < 12; id++ {
		ln := p.LogNodes(id, 3)
		for i, n := range ln {
			if want := nodes[(id+i)%5]; n != want {
				t.Fatalf("coord %d log node %d = mn%d, want mn%d", id, i, n.ID, want.ID)
			}
		}
	}
}

// With multiple groups a coordinator's log lives wholly inside its
// home group, and homes round-robin across groups by coordinator ID.
func TestLogNodesShardedHome(t *testing.T) {
	const shards, perGroup = 3, 4
	p := shardedPool(t, shards, perGroup, 2, nil)
	for id := 0; id < 24; id++ {
		ln := p.LogNodes(id, 3)
		home := id % shards
		seen := map[int]bool{}
		for _, n := range ln {
			if p.ShardOfNode(n.ID) != home {
				t.Fatalf("coord %d: log node mn%d outside home group %d", id, n.ID, home)
			}
			if seen[n.ID] {
				t.Fatalf("coord %d: log node mn%d repeated", id, n.ID)
			}
			seen[n.ID] = true
		}
	}
}

// Mirror maps each of a coordinator's log nodes to the same in-group
// position of another group — the cross-shard prepare fan-out — and a
// node to itself in its own group.
func TestMirrorNodes(t *testing.T) {
	p := shardedPool(t, 3, 4, 1, nil)
	for _, n := range p.LogNodes(7, 2) {
		for g := 0; g < 3; g++ {
			m := p.Mirror(n, g)
			if p.ShardOfNode(m.ID) != g {
				t.Fatalf("mirror node mn%d not in group %d", m.ID, g)
			}
			if m.ID%4 != n.ID%4 {
				t.Fatalf("mirror node mn%d not at in-group position of mn%d", m.ID, n.ID)
			}
		}
		if m := p.Mirror(n, p.ShardOfNode(n.ID)); m != n {
			t.Fatalf("mn%d's mirror in its own group is mn%d", n.ID, m.ID)
		}
	}
}

// Allocation is symmetric across topologies: the same alloc sequence
// yields the same offsets whether the pool is one group of six nodes
// or three groups of two — the mechanism behind shards=1 byte
// stability and group-local addressing.
func TestShardedAllocSymmetric(t *testing.T) {
	a := shardedPool(t, 1, 6, 1, nil)
	b := shardedPool(t, 3, 2, 1, nil)
	for _, size := range []int{64, 128, 9, 4096} {
		offA, offB := a.Alloc(size), b.Alloc(size)
		if offA != offB {
			t.Fatalf("alloc(%d): %d on single group, %d sharded", size, offA, offB)
		}
	}
	if a.allocOff != b.allocOff {
		t.Fatalf("used %d vs %d", a.allocOff, b.allocOff)
	}
}
