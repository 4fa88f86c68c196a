//go:build unix

package rdma

import "syscall"

// mapBytes returns size zero bytes in an anonymous private mapping
// outside the Go heap, or nil when the kernel refuses one (the caller
// then makes the region on the heap and fails there if it must).
func mapBytes(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}

// unmapBytes gives a mapBytes mapping back. It cannot fail on a whole
// mapping this package made, so there is no error to report.
func unmapBytes(b []byte) { _ = syscall.Munmap(b) }
