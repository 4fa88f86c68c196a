package engine

import (
	"math/bits"

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
// experiment measures. The batches are sc's log batches, which the
// decision write fills again once this round-trip is over.
//
// Prepares are durability fan-out only: recovery replays decision
// logs, so an entry that reached a remote group but whose home
// decision write never landed is ignored (a documented
// simplification of the 2PC durability rules).
func (c *Coord) prepareCrossShard(p *sim.Proc, sc *Scratch, parts ShardSet, off uint64, entry []byte) {
	pool := c.DB.Pool
	others := parts &^ (1 << uint(c.Home))
	bs := sc.batches(bits.OnesCount64(uint64(others)) * len(c.LogN))
	i := 0
	for g := 0; g < pool.Shards(); g++ {
		if others&(1<<uint(g)) == 0 {
			continue
		}
		for _, n := range c.LogN {
			setWrite(&bs[i], c.QPs.Get(pool.Mirror(n, g).Region), off, entry)
			i++
		}
	}
	post(p, bs)
}
