//go:build !unix

package rdma

// No mapping outside the Go heap here: every region is made on it.
func mapBytes(int) []byte { return nil }
func unmapBytes([]byte)   {}
