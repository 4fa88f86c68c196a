//go:build !linux

package rdma

// No MADV_POPULATE_WRITE here: the first store into a page faults it in.
func populateBytes([]byte, uint64, int) {}
