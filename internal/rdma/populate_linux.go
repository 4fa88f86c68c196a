package rdma

import (
	"os"
	"syscall"
)

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14), which the
// syscall package does not define.
const madvPopulateWrite = 23

var pageMask = uint64(os.Getpagesize() - 1)

// populateBytes faults in the pages of mapped bytes b[off:off+n] as a
// write to each would, without writing: one call per run where a
// first store traps once per page. A kernel that refuses (before
// 5.14, or out of memory) leaves the faults to the stores.
func populateBytes(b []byte, off uint64, n int) {
	start := off &^ pageMask // madvise wants a page-aligned address; a mapping starts on one
	_ = syscall.Madvise(b[start:off+uint64(n)], madvPopulateWrite)
}
