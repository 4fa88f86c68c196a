package engine

import (
	"crest/internal/rdma"
	"crest/internal/sim"
)

// ShardSet is a bitmask of participating shard groups, accumulated
// host-side as an attempt resolves its records' primaries.
type ShardSet uint64

// Add marks shard group g as a participant.
func (s *ShardSet) Add(g int) { *s |= 1 << uint(g) }

// Beyond reports whether the set contains any group other than home —
// the condition that makes a write attempt cross-shard.
func (s ShardSet) Beyond(home int) bool {
	return s&^(1<<uint(home)) != 0
}

// prepareCrossShard is the cross-shard commit's prepare round: it
// writes the already-encoded log entry at the same symmetric offset
// onto the mirrors of the coordinator's log-replica nodes in every
// participating group other than home, as one round-trip (one batch
// per mirror node, matching how the home log write batches per
// replica). The home group's decision write follows in its own
// round-trip, so a cross-shard commit pays exactly one extra RTT and
// holds its locks that much longer — the cost the crossover
// experiment measures.
//
// Prepares are durability fan-out only: recovery replays decision
// logs, so an entry that reached a remote group but whose home
// decision write never landed is ignored (a documented
// simplification of the 2PC durability rules).
func (c *Coord) prepareCrossShard(p *sim.Proc, parts ShardSet, off uint64, entry []byte) {
	pool := c.DB.Pool
	var batches []rdma.Batch
	for g := 0; g < pool.Shards(); g++ {
		if g == c.Home || parts&(1<<uint(g)) == 0 {
			continue
		}
		for _, n := range pool.MirrorNodes(c.LogN, g) {
			batches = append(batches, rdma.Batch{
				QP:  c.QPs.Get(n.Region),
				Ops: []rdma.Op{{Kind: rdma.OpWrite, Off: off, Data: entry}},
			})
		}
	}
	post(p, batches)
}
