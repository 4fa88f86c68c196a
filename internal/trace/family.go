package trace

import (
	"fmt"
	"sort"

	"crest/internal/sim"
)

// This file is the plumbing every observer (trace, metrics, causality,
// flight) shares: a bounded ring, the partition family behind each
// recorder's Shard(part, parts), and the deterministic time-merge that
// folds a family back into one stream at snapshot time. The recorders
// keep their view-specific state machines; what is common lives here,
// once.

// Ring is a bounded FIFO: once capacity elements are buffered, every
// push evicts the oldest. The zero Ring is unusable; build one with
// NewRing.
type Ring[T any] struct {
	buf     []T
	cap     int
	head    int // index of the oldest element once the ring has wrapped
	dropped uint64
}

// NewRing returns a ring holding at most capacity elements. With
// prealloc the backing array is allocated up front, so Push never
// allocates; otherwise it grows by appending until it reaches capacity.
func NewRing[T any](capacity int, prealloc bool) Ring[T] {
	r := Ring[T]{cap: capacity}
	if prealloc {
		r.buf = make([]T, 0, capacity)
	}
	return r
}

// Push appends v, evicting (and counting) the oldest element when full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.cap
	r.dropped++
}

// Len reports the number of buffered elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Cap reports the ring's capacity.
func (r *Ring[T]) Cap() int { return r.cap }

// Dropped reports how many elements were evicted.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// AppendTo appends the buffered elements, oldest to newest, to dst.
func (r *Ring[T]) AppendTo(dst []T) []T {
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}

// Family is the partition-family state an observer of type T embeds by
// value. A root observer hands each simulation partition its own child
// (Shard), written lock-free by the partition's worker; the root's
// snapshot merges the members deterministically. A child knows its
// partition and the family's partition count, which is what makes its
// ids a strided, collision-free sequence (StrideID).
type Family[T any] struct {
	part   int // this member's partition (children only)
	stride int // the family's partition count on a child, 0 on a root
	kids   []*T
}

// Shard returns the child of self owned by partition part of parts.
// Below two partitions it returns self, so single-partition runs keep
// the classic observer byte-for-byte. The whole family is built on the
// first call — mk constructs one child around the Family value it is
// given — so every caller sharding with the same partition count gets
// the same children. Misuse panics, prefixed with pkg: sharding a
// child, an out-of-range part, or a partition count that differs from
// the first call's.
func (f *Family[T]) Shard(pkg string, self *T, part, parts int, mk func(Family[T]) *T) *T {
	if parts <= 1 {
		return self
	}
	if f.stride > 0 {
		panic(pkg + ": Shard of a partition child")
	}
	if f.kids == nil {
		f.kids = make([]*T, parts)
		for i := range f.kids {
			f.kids[i] = mk(Family[T]{part: i, stride: parts})
		}
	}
	if len(f.kids) != parts || part < 0 || part >= parts {
		panic(fmt.Sprintf("%s: Shard(%d, %d) of a family sharded %d ways", pkg, part, parts, len(f.kids)))
	}
	return f.kids[part]
}

// StrideID maps a member's local 1-based counter to a family-unique
// id: children of an n-way family issue part+1, part+1+n, part+1+2n, …
// while a root (or classic, unsharded) observer issues local unchanged.
func (f *Family[T]) StrideID(local uint64) uint64 {
	if f.stride > 1 {
		return uint64(f.part) + uint64(f.stride)*(local-1) + 1
	}
	return local
}

// Sharded reports whether Shard has built children.
func (f *Family[T]) Sharded() bool { return f.kids != nil }

// Members returns self followed by its children in partition order —
// the order MergeByTime expects its streams in.
func (f *Family[T]) Members(self *T) []*T {
	return append([]*T{self}, f.kids...)
}

// Sum adds fn over self and every child: the family-wide Dropped and
// Len of a sharded observer.
func (f *Family[T]) Sum(self *T, fn func(*T) uint64) uint64 {
	n := fn(self)
	for _, c := range f.kids {
		n += fn(c)
	}
	return n
}

// MergeByTime folds per-member streams (in Members order: the root,
// then each partition's child) into one slice ordered by (virtual
// time, partition, seq), the root counting as partition -1 — the same
// key the partitioned scheduler merges cross-partition mailboxes by.
// key extracts an element's time and its member-local sequence number
// (an emission counter or a strided id). The order is a pure function
// of the simulation, never of the worker count.
func MergeByTime[T any](streams [][]T, key func(*T) (sim.Time, uint64)) []T {
	type tagged struct {
		at   sim.Time
		seq  uint64
		part int
		v    *T
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	all := make([]tagged, 0, total)
	for i, s := range streams {
		for j := range s {
			at, seq := key(&s[j])
			all = append(all, tagged{at: at, seq: seq, part: i - 1, v: &s[j]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.part != b.part {
			return a.part < b.part
		}
		return a.seq < b.seq
	})
	out := make([]T, len(all))
	for i := range all {
		out[i] = *all[i].v
	}
	return out
}
