//go:build unix

package memnode

import (
	"runtime"
	"testing"

	"crest/internal/rdma"
	"crest/internal/sim"
)

// TestPoolStaysOffTheGoHeap: building a pool moves the live Go heap by
// less than a tenth of the pool's size — the regions are the simulated
// DRAM, mapped beside the heap, so the collector's goal follows the
// simulator's own state.
func TestPoolStaysOffTheGoHeap(t *testing.T) {
	const nodes, size = 2, 32 << 20
	fabric := rdma.NewFabric(sim.NewEnv(1), rdma.DefaultParams())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pool := NewPool(fabric, nodes, size, 1)
	defer pool.Close()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= nodes*size/10 {
		t.Errorf("HeapAlloc grew by %d bytes across NewPool of %d", grew, nodes*size)
	}
}
