package rdma

import (
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"

	"crest/internal/sim"
)

// rusageThread is RUSAGE_THREAD: the calling thread's counters only.
const rusageThread = 1

var page = os.Getpagesize()

// threadMinflt reports the minor faults the calling thread has taken.
func threadMinflt(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		t.Fatal(err)
	}
	return int64(ru.Minflt)
}

// touchFaults reads and then writes one byte of each page of b on the
// calling thread, which the caller has locked, and returns the minor
// faults that took. A byte that does not read zero fails the test.
func touchFaults(t *testing.T, b []byte) int64 {
	t.Helper()
	nonzero := 0
	before := threadMinflt(t)
	for i := 0; i < len(b); i += page {
		if b[i] != 0 {
			nonzero++
		}
		b[i] = 1
	}
	faults := threadMinflt(t) - before
	if nonzero > 0 {
		t.Errorf("%d of %d pages did not read zero", nonzero, len(b)/page)
	}
	return faults
}

// mappedRegion registers a region of size bytes that is mapped and
// faults one base page at a time, whatever the host's huge-page policy.
func mappedRegion(t *testing.T, size int) *Region {
	t.Helper()
	r := NewFabric(sim.NewEnv(1), noJitter()).Register("mn0", size)
	if r.mem == nil {
		t.Skip("the kernel refused the mapping")
	}
	t.Cleanup(r.Close)
	if err := syscall.Madvise(r.Bytes(), syscall.MADV_NOHUGEPAGE); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPopulateFaultsPagesAhead: after Populate of the first half of a
// 64 MiB region, the thread that then touches it takes (almost) no
// faults there and one or more per page in the other half, and every
// byte still reads zero.
func TestPopulateFaultsPagesAhead(t *testing.T) {
	const size = 64 << 20
	r := mappedRegion(t, size)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	half := size / 2
	r.Populate(0, half)
	pages := int64(half / page)
	populated, other := touchFaults(t, r.Bytes()[:half]), touchFaults(t, r.Bytes()[half:])
	t.Logf("minor faults over %d pages: %d populated, %d not", pages, populated, other)
	if populated*100 >= pages {
		t.Errorf("populated half: %d faults over %d pages, want under 1 %%", populated, pages)
	}
	if other*10 < pages*9 {
		t.Errorf("other half: %d faults over %d pages, want at least 90 %%", other, pages)
	}
}

// TestPopulateKeepsConcurrentStores: a goroutine storing into a span
// while another populates it keeps every byte it stored.
func TestPopulateKeepsConcurrentStores(t *testing.T) {
	const size = 16 << 20
	r := mappedRegion(t, size)
	b := r.Bytes()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < size; i += 64 {
			b[i] = byte(i/64) | 1
		}
	}()
	r.Populate(0, size)
	wg.Wait()
	for i := 0; i < size; i++ {
		want := byte(0)
		if i%64 == 0 {
			want = byte(i/64) | 1
		}
		if b[i] != want {
			t.Fatalf("byte %d reads %d after Populate, want %d", i, b[i], want)
		}
	}
}

// TestPopulateOutOfRangeIsNoOp: an empty, negative or out-of-range
// span populates nothing, not even its in-range part, and a closed
// region ignores Populate.
func TestPopulateOutOfRangeIsNoOp(t *testing.T) {
	const size = 4 << 20
	r := mappedRegion(t, size)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r.Populate(0, 0)
	r.Populate(0, -1)
	r.Populate(size, 1)
	r.Populate(uint64(page), size)
	r.Populate(1<<63, page)
	pages := int64(size / page)
	if got := touchFaults(t, r.Bytes()); got*10 < pages*9 {
		t.Errorf("%d faults over %d pages after out-of-range spans, want at least 90 %%", got, pages)
	}
	r.Close()
	r.Populate(0, page)
}
