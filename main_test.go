package crest

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"crest/internal/rdma"
)

// TestMain holds the package to "nothing leaks": a Cluster has no Close,
// so its pool goes when the collector finds the cluster unreachable —
// once every test is done and that has happened, no region byte is
// mapped.
func TestMain(m *testing.M) {
	code := m.Run()
	for i := 0; i < 200 && rdma.MappedBytes() != 0; i++ {
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if left := rdma.MappedBytes(); left != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d region bytes still mapped after the package's tests\n", left)
		code = 1
	}
	os.Exit(code)
}
