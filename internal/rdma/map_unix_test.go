//go:build unix

package rdma

import (
	"runtime"
	"testing"
	"time"

	"crest/internal/sim"
)

// settleMapped collects twice — once to find unreachable mappings, once
// more for what their finalizers let go — and waits for the finalizer
// goroutine until MappedBytes reads want.
func settleMapped(want int64) int64 {
	for i := 0; i < 200; i++ {
		runtime.GC()
		runtime.GC()
		if MappedBytes() == want {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return MappedBytes()
}

// TestMappedBytesFollowRegions: a region of minMapped bytes or more is
// counted while it lives and not after Close; a smaller one never is.
func TestMappedBytesFollowRegions(t *testing.T) {
	base := settleMapped(0)
	f := NewFabric(sim.NewEnv(1), noJitter())
	small := f.Register("small", minMapped-1)
	if got := MappedBytes(); got != base {
		t.Fatalf("a region below minMapped moved the counter by %d", got-base)
	}
	a, b := f.Register("a", minMapped), f.Register("b", 3*minMapped)
	if got := MappedBytes() - base; got != 4*minMapped {
		t.Fatalf("two mapped regions count %d bytes, want %d", got, 4*minMapped)
	}
	a.Close()
	a.Close()
	if got := MappedBytes() - base; got != 3*minMapped {
		t.Fatalf("after closing one twice: %d bytes, want %d", got, 3*minMapped)
	}
	b.Close()
	small.Close()
	if got := MappedBytes(); got != base {
		t.Fatalf("after closing all: counter off by %d", got-base)
	}
}

// TestUnclosedFabricUnmapsWhenCollected: the finalizer is the backstop
// for whoever never calls Close (crest.Cluster, tests, crestperf's
// micro-benchmarks) — it sits on the mapping, not on the Region, which
// its Fabric points back at.
func TestUnclosedFabricUnmapsWhenCollected(t *testing.T) {
	base := settleMapped(0)
	func() {
		env := sim.NewEnv(1)
		f := NewFabric(env, noJitter())
		r := f.Register("mn0", 2*minMapped)
		qp := f.Connect(r)
		env.Spawn("w", func(p *sim.Proc) {
			if err := qp.Write(p, minMapped, []byte{1}); err != nil {
				t.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if got := MappedBytes() - base; got != 2*minMapped {
			t.Fatalf("live fabric: %d bytes mapped, want %d", got, 2*minMapped)
		}
	}()
	if got := settleMapped(base); got != base {
		t.Fatalf("%d bytes still mapped after the fabric was dropped and collected", got-base)
	}
}
