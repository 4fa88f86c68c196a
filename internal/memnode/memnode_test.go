package memnode

import (
	"testing"
	"testing/quick"

	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/sim"
)

func newPool(t *testing.T, mns, replicas int) *Pool {
	t.Helper()
	env := sim.NewEnv(1)
	fabric := rdma.NewFabric(env, rdma.DefaultParams())
	return NewPool(fabric, mns, 1<<20, replicas)
}

func TestAllocMirroredAndAligned(t *testing.T) {
	p := newPool(t, 3, 1)
	a := p.Alloc(10)
	b := p.Alloc(100)
	if a != 0 {
		t.Fatalf("first alloc at %d", a)
	}
	if b != 64 {
		t.Fatalf("second alloc at %d, want 64 (cacheline aligned)", b)
	}
	if c := p.Alloc(1); c != 64+128 {
		t.Fatalf("third alloc at %d, want %d (after 64+128 used)", c, 64+128)
	}
}

func TestPoolExhaustionPanics(t *testing.T) {
	p := newPool(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on exhaustion")
		}
	}()
	p.Alloc(1 << 21)
}

func TestBadReplicationPanics(t *testing.T) {
	env := sim.NewEnv(1)
	fabric := rdma.NewFabric(env, rdma.DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for f >= nodes")
		}
	}()
	NewPool(fabric, 2, 1024, 2)
}

func TestReplicaNodesDistinctAndStable(t *testing.T) {
	p := newPool(t, 4, 2)
	for key := layout.Key(0); key < 100; key++ {
		nodes := p.ReplicaNodes(5, key)
		if len(nodes) != 3 {
			t.Fatalf("got %d replicas", len(nodes))
		}
		if nodes[0] != p.PrimaryOf(5, key) {
			t.Fatal("first replica is not the primary")
		}
		seen := map[int]bool{}
		for _, n := range nodes {
			if seen[n.ID] {
				t.Fatalf("duplicate node %d in replica set", n.ID)
			}
			seen[n.ID] = true
		}
	}
}

func TestPrimarySpreadsAcrossNodes(t *testing.T) {
	p := newPool(t, 2, 0)
	counts := map[int]int{}
	for key := layout.Key(0); key < 1000; key++ {
		counts[p.PrimaryOf(1, key).ID]++
	}
	for id, c := range counts {
		if c < 300 {
			t.Fatalf("node %d got only %d of 1000 primaries", id, c)
		}
	}
}

func TestHeapSlots(t *testing.T) {
	p := newPool(t, 2, 0)
	h := p.AllocHeap(100, 10) // slots pad to 128
	if h.RecSize != 128 {
		t.Fatalf("RecSize = %d", h.RecSize)
	}
	if h.SlotOff(0) != h.Base || h.SlotOff(9) != h.Base+9*128 {
		t.Fatal("bad slot offsets")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range slot")
		}
	}()
	h.SlotOff(10)
}

func TestLogSegmentReserveWraps(t *testing.T) {
	p := newPool(t, 1, 0)
	s := p.AllocLog(256)
	if off := s.Reserve(100); off != s.Base {
		t.Fatalf("first entry at %d", off)
	}
	if off := s.Reserve(100); off != s.Base+100 {
		t.Fatalf("second entry at %d", off)
	}
	// 56 bytes left; a 100-byte entry wraps to the start.
	if off := s.Reserve(100); off != s.Base {
		t.Fatalf("wrapped entry at %d, want base", off)
	}
	if off := s.Reserve(1); off != s.Base+100 {
		t.Fatalf("entry after the wrapped one at %d, want base+100", off)
	}
}

func TestLogSegmentOversizePanics(t *testing.T) {
	p := newPool(t, 1, 0)
	s := p.AllocLog(64)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversize entry")
		}
	}()
	s.Reserve(65)
}

// Property: the replica set never depends on anything but (table, key)
// and is always the primary plus the following nodes in ring order.
func TestQuickReplicaRing(t *testing.T) {
	p := newPool(t, 5, 2)
	f := func(table uint32, key uint64) bool {
		nodes := p.ReplicaNodes(layout.TableID(table), layout.Key(key))
		for i := 1; i < len(nodes); i++ {
			if nodes[i].ID != (nodes[i-1].ID+1)%5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
