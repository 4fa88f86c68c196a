package engine

import "crest/internal/rdma"

// Batcher groups rdma ops per target memory region into batches for
// one PostMulti round-trip, replacing the per-attempt
// `map[int]int + append` idiom on every coordinator hot path. All
// backing arrays (the batch list and each batch's Ops) are retained
// across Begin calls, so steady-state batch building allocates
// nothing.
//
// A Batcher must not be shared by overlapping attempts: ops appended
// for one round-trip stay referenced by the fabric until the issuing
// PostMulti returns, so the next Begin may only happen after that.
type Batcher struct {
	qps     *QPCache
	batches []rdma.Batch
	rids    []int // region ID per active batch (for perNode reset)
	perNode []int // region ID → batch index + 1; 0 = absent
	n       int   // active batch count
}

// NewBatcher returns an empty builder connecting through qps.
func NewBatcher(qps *QPCache) *Batcher { return &Batcher{qps: qps} }

// Begin starts a new round-trip, forgetting previous batches but
// keeping their Ops backing arrays for reuse.
func (b *Batcher) Begin() {
	for i := 0; i < b.n; i++ {
		b.perNode[b.rids[i]] = 0
	}
	b.n = 0
}

// Batch returns the batch index for region r, creating an empty batch
// on the region's first use this round-trip.
func (b *Batcher) Batch(r *rdma.Region) int {
	id := r.ID()
	if id >= len(b.perNode) {
		b.perNode = append(b.perNode, make([]int, id+1-len(b.perNode))...)
	}
	if bi := b.perNode[id]; bi != 0 {
		return bi - 1
	}
	bi := b.n
	if bi == len(b.batches) {
		b.batches = append(b.batches, rdma.Batch{})
		b.rids = append(b.rids, 0)
	}
	b.batches[bi].QP = b.qps.Get(r)
	b.batches[bi].Ops = b.batches[bi].Ops[:0]
	b.rids[bi] = id
	b.n++
	b.perNode[id] = bi + 1
	return bi
}

// Lookup returns region r's batch index; the batch must exist.
func (b *Batcher) Lookup(r *rdma.Region) int { return b.perNode[r.ID()] - 1 }

// Append adds op to batch bi and returns the op's index within it.
func (b *Batcher) Append(bi int, op rdma.Op) int {
	b.batches[bi].Ops = append(b.batches[bi].Ops, op)
	return len(b.batches[bi].Ops) - 1
}

// Batches returns the active batches, ready for rdma.PostMulti.
func (b *Batcher) Batches() []rdma.Batch { return b.batches[:b.n] }
