package metrics

import (
	"bytes"
	"testing"

	"crest/internal/sim"
)

// The merged snapshot is the per-identity sum of the family: series
// registered on several partitions fold their totals and per-window
// samples, shard-local series ride along, and shorter members zero-pad
// to the longest window vector.
func TestShardMergeSumsAcrossPartitions(t *testing.T) {
	r := NewRegistry(Options{Window: 10 * sim.Microsecond})
	s0, s1 := r.Shard(0, 2), r.Shard(1, 2)
	if s1.window != r.window {
		t.Fatalf("child window %v != root %v", s1.window, r.window)
	}
	now0, now1 := fakeClock(s0), fakeClock(s1)

	c0 := s0.Counter("ops_total", "", "ops")
	c1 := s1.Counter("ops_total", "", "ops")
	only1 := s1.Gauge("depth", `partition="1"`, "")
	c0.Add(3)
	c1.Add(4)
	only1.Add(7)

	// Both partitions advance in lock step (as aligned windows do in a
	// partitioned run); shard 0 then mutates in the second window, and
	// both clocks pass its end so Snapshot seals two windows everywhere.
	*now0 = sim.Time(12 * sim.Microsecond)
	c0.Add(5)
	*now0 = sim.Time(22 * sim.Microsecond)
	*now1 = sim.Time(22 * sim.Microsecond)

	snap := r.Snapshot()
	if len(snap.Times) != 2 {
		t.Fatalf("merged windows = %d, want 2", len(snap.Times))
	}
	se := snap.Find("ops_total", "")
	if se == nil {
		t.Fatal("merged counter missing")
	}
	if se.Total != 12 {
		t.Fatalf("merged total = %v, want 12", se.Total)
	}
	if len(se.Samples) != 2 || se.Samples[0] != 7 || se.Samples[1] != 5 {
		t.Fatalf("merged samples = %v, want [7 5]", se.Samples)
	}
	g := snap.Find("depth", `partition="1"`)
	if g == nil {
		t.Fatal("shard-local series missing from the merge")
	}
	if len(g.Samples) != 2 {
		t.Fatalf("shard-local samples not padded to the merged windows: %v", g.Samples)
	}
}

// The merged snapshot renders deterministically: two identical sharded
// runs export byte-identical documents.
func TestShardMergeDeterministic(t *testing.T) {
	build := func() *Snapshot {
		r := NewRegistry(Options{Window: 10 * sim.Microsecond})
		for part := 0; part < 3; part++ {
			s := r.Shard(part, 3)
			now := fakeClock(s)
			c := s.Counter("ops_total", "", "")
			h := s.Histogram("lat", "", "", LogLinearBounds(1, 1<<10, 2))
			for i := 0; i < 5; i++ {
				c.Add(uint64(part + i))
				h.Observe(int64(1 << i))
				*now += sim.Time(10 * sim.Microsecond)
			}
		}
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical sharded runs exported different documents")
	}
}

// The shard child's mutation path is the recorder hot path of a
// partitioned run; it must stay allocation-free in steady state.
func TestShardHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry(Options{Window: sim.Duration(1 * sim.Second)})
	s := r.Shard(0, 2)
	fakeClock(s)
	c := s.Counter("c_total", "", "")
	g := s.Gauge("g", "", "")
	h := s.Histogram("h", "", "", LogLinearBounds(1, 1<<20, 2))
	c.Inc()
	g.Inc()
	h.Observe(17)
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(5)
		h.Observe(123)
	}); avg != 0 {
		t.Fatalf("sharded hot path allocates %v/op", avg)
	}
}
