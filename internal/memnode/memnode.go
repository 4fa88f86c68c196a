// Package memnode models the memory pool of a disaggregated
// architecture: passive nodes that expose registered memory regions to
// one-sided RDMA and perform no transaction logic themselves.
//
// The pool is organized as shard groups: shards independent groups of
// nodesPerShard nodes each. A placement.Policy decides which group
// owns a record and which node inside the group holds its primary
// copy; replicas follow the primary in ring order inside the group.
// The classic single-cluster topology is the one-group case.
//
// Allocation across the pool is symmetric: every node of every group
// performs the same allocation sequence, so one offset addresses the
// same object (a table heap, an index, a log segment) on every node.
// That keeps (f+1)-primary-backup replication a pure data-plane
// concern — a record's replicas live at the same offset on the f
// group nodes following its primary — and it is what makes the
// sharded refactor byte-stable: group membership only changes which
// nodes are written, never where anything lives.
package memnode

import (
	"errors"
	"fmt"

	"crest/internal/layout"
	"crest/internal/placement"
	"crest/internal/rdma"
)

// MaxShards bounds the shard-group count (participant sets travel as
// 64-bit masks through the commit path).
const MaxShards = 64

// Node is one memory node: an id plus its registered region.
type Node struct {
	ID     int
	Region *rdma.Region
}

// Pool is the memory pool: all memory nodes, organized in shard
// groups, plus the replication factor and the placement policy that
// routes records to nodes.
type Pool struct {
	nodes    []*Node // group-major: group g owns nodes[g*perGroup : (g+1)*perGroup]
	replicas int     // f: number of backup copies per record
	shards   int
	perGroup int
	policy   placement.Policy
	fabric   *rdma.Fabric
	allocOff uint64
	size     uint64
}

// NewPool registers regions of size bytes on mns memory nodes as a
// single shard group under hash placement — the historical topology,
// bit-for-bit. replicas is f, the number of synchronously updated
// backups per record; it must leave at least one distinct node per
// replica.
func NewPool(fabric *rdma.Fabric, mns int, size int, replicas int) *Pool {
	p, err := NewShardedPool(fabric, 1, mns, size, replicas, nil)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// NewShardedPool registers shards independent groups of nodesPerShard
// memory nodes each, with size bytes per node, routing records through
// pol (nil selects hash placement). replicas is f, the per-record
// backup count, and replication never leaves a group, so it must
// leave at least one distinct node per replica inside one group.
// Invalid topologies return errors rather than panicking so the
// public config layer can surface them.
func NewShardedPool(fabric *rdma.Fabric, shards, nodesPerShard, size, replicas int, pol placement.Policy) (*Pool, error) {
	if shards < 1 {
		return nil, fmt.Errorf("memnode: need at least one shard group, got %d", shards)
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("memnode: %d shard groups exceed the maximum of %d", shards, MaxShards)
	}
	if nodesPerShard <= 0 {
		return nil, errors.New("memnode: need at least one memory node")
	}
	if replicas < 0 || replicas >= nodesPerShard {
		return nil, fmt.Errorf("memnode: %d backups impossible with %d nodes", replicas, nodesPerShard)
	}
	if pol == nil {
		pol = placement.Hash{}
	}
	if fabric.Lanes() > 1 && fabric.Lanes() != shards {
		return nil, fmt.Errorf("memnode: fabric has %d partitions but the pool has %d shard groups",
			fabric.Lanes(), shards)
	}
	p := &Pool{
		fabric:   fabric,
		replicas: replicas,
		shards:   shards,
		perGroup: nodesPerShard,
		policy:   pol,
		size:     uint64(size),
	}
	for i := 0; i < shards*nodesPerShard; i++ {
		// On a partitioned fabric each shard group's nodes live in the
		// matching simulation partition; replication never leaves a
		// group, so a replicated write stays single-partition too.
		part := 0
		if fabric.Lanes() > 1 {
			part = i / nodesPerShard
		}
		p.nodes = append(p.nodes, &Node{
			ID:     i,
			Region: fabric.RegisterAt(fmt.Sprintf("mn%d", i), size, part),
		})
	}
	return p, nil
}

// Close ends the pool: every node's region is closed (rdma.Region.Close),
// so the simulated DRAM goes back to the system now and not when the
// collector gets to it. Closing twice is harmless.
func (p *Pool) Close() {
	for _, n := range p.nodes {
		n.Region.Close()
	}
}

// Nodes returns the pool's memory nodes (all groups, group-major).
func (p *Pool) Nodes() []*Node { return p.nodes }

// NumNodes returns the total number of memory nodes across groups.
func (p *Pool) NumNodes() int { return len(p.nodes) }

// Replicas returns f, the number of backups per record.
func (p *Pool) Replicas() int { return p.replicas }

// Shards returns the number of shard groups.
func (p *Pool) Shards() int { return p.shards }

// Policy returns the placement policy routing records to nodes.
func (p *Pool) Policy() placement.Policy { return p.policy }

// GroupNodes returns shard group g's memory nodes.
func (p *Pool) GroupNodes(g int) []*Node {
	return p.nodes[g*p.perGroup : (g+1)*p.perGroup]
}

// ShardOf returns the shard group owning (table, key).
func (p *Pool) ShardOf(table layout.TableID, key layout.Key) int {
	return p.policy.Shard(table, key, p.shards)
}

// ShardOfNode returns the shard group node id belongs to.
func (p *Pool) ShardOfNode(id int) int { return id / p.perGroup }

// Fabric returns the pool's interconnect.
func (p *Pool) Fabric() *rdma.Fabric { return p.fabric }

// Alloc reserves size bytes at the same offset on every node and
// returns that offset. Allocations are cacheline aligned.
func (p *Pool) Alloc(size int) uint64 {
	off := p.allocOff
	p.allocOff += uint64((size + layout.Cacheline - 1) / layout.Cacheline * layout.Cacheline)
	if p.allocOff > p.size {
		panic(fmt.Sprintf("memnode: pool exhausted: %d of %d bytes", p.allocOff, p.size))
	}
	return off
}

// PrimaryOf returns the memory node holding the primary copy of the
// record identified by (table, key).
func (p *Pool) PrimaryOf(table layout.TableID, key layout.Key) *Node {
	return p.nodes[p.primaryIndex(table, key)]
}

// primaryIndex routes (table, key) through the placement policy: the
// policy picks the owning group and the primary position inside it.
// With one group this is exactly the historical policy.Primary over
// all nodes.
func (p *Pool) primaryIndex(table layout.TableID, key layout.Key) int {
	g := p.policy.Shard(table, key, p.shards)
	return g*p.perGroup + p.policy.Primary(table, key, p.perGroup)
}

// ReplicaNodes returns the primary followed by the f backup nodes for
// (table, key), in replication order. Replication never leaves the
// owning shard group. It allocates the list: set-up and recovery call
// it, the commit paths call AppendReplicaNodes with a buffer they keep.
func (p *Pool) ReplicaNodes(table layout.TableID, key layout.Key) []*Node {
	return p.AppendReplicaNodes(make([]*Node, 0, p.replicas+1), table, key)
}

// AppendReplicaNodes appends what ReplicaNodes returns to dst.
func (p *Pool) AppendReplicaNodes(dst []*Node, table layout.TableID, key layout.Key) []*Node {
	g := p.policy.Shard(table, key, p.shards)
	pi := p.policy.Primary(table, key, p.perGroup)
	base := g * p.perGroup
	for i := 0; i <= p.replicas; i++ {
		dst = append(dst, p.nodes[base+(pi+i)%p.perGroup])
	}
	return dst
}

// LogNodes returns the count nodes hosting coordinator id's log
// segment, starting at the node the id hashes to and following in
// ring order. With one shard group the ring spans the whole pool
// (the historical layout, byte-for-byte); with more, each
// coordinator's log lives entirely inside its home group — the group
// its id maps to — so recovery of a group never depends on another
// group's nodes.
func (p *Pool) LogNodes(id, count int) []*Node {
	out := make([]*Node, count)
	g := id % p.shards
	gn := p.GroupNodes(g)
	for i := range out {
		out[i] = gn[(id/p.shards+i)%p.perGroup]
	}
	return out
}

// Mirror returns shard group g's node at the same in-group position as
// n. The symmetric allocation guarantees any offset valid on n is valid
// on its mirror — this is how the cross-shard prepare addresses a
// remote group's log replicas.
func (p *Pool) Mirror(n *Node, g int) *Node {
	return p.nodes[g*p.perGroup+n.ID%p.perGroup]
}

// Heap is a table's record heap: count fixed-size slots starting at a
// pool-mirrored offset.
type Heap struct {
	pool    *Pool
	Base    uint64
	RecSize int
	Count   int
}

// AllocHeap reserves a heap of count records of recSize bytes.
func (p *Pool) AllocHeap(recSize, count int) *Heap {
	slot := (recSize + layout.Cacheline - 1) / layout.Cacheline * layout.Cacheline
	return &Heap{pool: p, Base: p.Alloc(slot * count), RecSize: slot, Count: count}
}

// SlotOff returns the region offset of record slot i.
func (h *Heap) SlotOff(i int) uint64 {
	if i < 0 || i >= h.Count {
		panic(fmt.Sprintf("memnode: slot %d outside heap of %d", i, h.Count))
	}
	return h.Base + uint64(i*h.RecSize)
}

// SlotOf is the inverse of SlotOff: the slot of the record at region
// offset off.
func (h *Heap) SlotOf(off uint64) int {
	if off < h.Base || off >= h.Base+uint64(h.Count*h.RecSize) {
		panic(fmt.Sprintf("memnode: offset %d outside heap of %d slots at %d", off, h.Count, h.Base))
	}
	return int((off - h.Base) / uint64(h.RecSize))
}

// LogSegment is a per-coordinator append-only log area in the memory
// pool (§6, redo-logging). The owning coordinator is the only writer,
// so it tracks the tail locally; Reserve hands out the offset for the
// next entry. The segment is a ring: once full it wraps, which is safe
// because entries are only needed until their transaction's updates
// are applied and acknowledged.
type LogSegment struct {
	Base uint64
	Size int
	tail int
}

// AllocLog reserves a log segment of size bytes.
func (p *Pool) AllocLog(size int) *LogSegment {
	return &LogSegment{Base: p.Alloc(size), Size: size}
}

// Reserve returns the offset for an n-byte entry and advances the
// tail. Entries never straddle the wrap point: if n does not fit in
// the remainder, the remainder is skipped.
func (s *LogSegment) Reserve(n int) uint64 {
	if n > s.Size {
		panic(fmt.Sprintf("memnode: log entry of %d bytes exceeds segment of %d", n, s.Size))
	}
	if s.tail+n > s.Size {
		s.tail = 0
	}
	off := s.Base + uint64(s.tail)
	s.tail += n
	return off
}
