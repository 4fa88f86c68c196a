package trace

import (
	"cmp"
	"fmt"
	"slices"

	"crest/internal/sim"
)

// This file is the plumbing every observer (trace, metrics, causality,
// flight) shares: a bounded ring, the partition family behind each
// recorder's Shard(part, parts), and the deterministic time-merge that
// folds a family back into one stream at snapshot time. The recorders
// keep their view-specific state machines; what is common lives here,
// once.

// Ring is a bounded FIFO: once capacity elements are buffered, every
// new one evicts the oldest. Storage grows one fixed-size segment at a
// time, on demand: growth never copies, nothing is committed before it
// is written, and an element's address is stable, so a recorder fills
// the slot Next returns in place. The zero Ring is unusable; build one
// with NewRing.
type Ring[T any] struct {
	segs    [][]T // element i lives at segs[i>>segShift][i&segMask]
	cap     int
	n       int // buffered elements
	head    int // index of the oldest element once the ring has wrapped
	dropped uint64
}

// A segment holds segLen elements (the last one of a ring whatever is
// left of its capacity): 320 KB of trace events, enough that a full
// default ring is 64 allocations and a short run commits only what it
// wrote.
const (
	segShift = 12
	segLen   = 1 << segShift
	segMask  = segLen - 1
)

// NewRing returns a ring holding at most capacity elements. Only the
// table of segments is allocated here, so a segment boundary costs
// exactly one allocation: the segment.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{cap: capacity, segs: make([][]T, 0, (capacity+segMask)>>segShift)}
}

// Next returns the slot of the next element, evicting (and counting)
// the oldest when the ring is full. The slot holds whatever was there
// before; the caller overwrites all of it.
func (r *Ring[T]) Next() *T {
	i := r.n
	if i < r.cap {
		r.n++
		if i>>segShift == len(r.segs) {
			r.segs = append(r.segs, make([]T, min(segLen, r.cap-i)))
		}
	} else {
		i = r.head
		if r.head++; r.head == r.cap {
			r.head = 0
		}
		r.dropped++
	}
	return &r.segs[i>>segShift][i&segMask]
}

// Len reports the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap reports the ring's capacity.
func (r *Ring[T]) Cap() int { return r.cap }

// Dropped reports how many elements were evicted.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// AppendTo appends the buffered elements, oldest to newest, to dst.
func (r *Ring[T]) AppendTo(dst []T) []T {
	if cap(dst)-len(dst) < r.n {
		// make, not slices.Grow: Grow clears what it adds, a second pass
		// over tens of megabytes that are about to be overwritten.
		dst = append(make([]T, 0, len(dst)+r.n), dst...)
	}
	dst = r.appendRange(dst, r.head, r.n)
	return r.appendRange(dst, 0, r.head)
}

// appendRange appends elements [lo, hi) in index order.
func (r *Ring[T]) appendRange(dst []T, lo, hi int) []T {
	for lo < hi {
		seg := r.segs[lo>>segShift]
		off := lo & segMask
		n := min(hi-lo, len(seg)-off)
		dst = append(dst, seg[off:off+n]...)
		lo += n
	}
	return dst
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
//
// A member that emits on its partition's clock arrives already in
// (time, seq) order — every trace and causality stream does
// (TestMemberStreamsArriveSorted) — and is merged as it stands; flight
// summaries enter their ring when a transaction ends but merge by when
// it began, so a stream found out of order is sorted first. Streams are
// then merged k ways on (time, partition): k is the partition count, a
// scan of the heads.
func MergeByTime[T any](streams [][]T, key func(*T) (sim.Time, uint64)) []T {
	total := 0
	heads := make([]sim.Time, len(streams))
	for i := range streams {
		streams[i] = inOrder(streams[i], key)
		if s := streams[i]; len(s) > 0 {
			total += len(s)
			heads[i], _ = key(&s[0])
		}
	}
	if len(streams) == 1 && total > 0 {
		// An unsharded observer: nothing to merge with. (An empty one
		// falls through to the empty, non-nil result below.)
		return streams[0]
	}
	out := make([]T, 0, total)
	pos := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if pos[i] < len(s) && (best < 0 || heads[i] < heads[best]) {
				best = i
			}
		}
		// Take best's whole run at this instant: the members before it
		// have nothing left that early, the members after it sort later.
		s, at, j := streams[best], heads[best], pos[best]
		for j < len(s) {
			if t, _ := key(&s[j]); t != at {
				heads[best] = t
				break
			}
			j++
		}
		out = append(out, s[pos[best]:j]...)
		pos[best] = j
	}
	return out
}

// inOrder returns s in (time, seq) order, elements that tie keeping
// their positions: s itself when it is already so, else a sorted copy.
func inOrder[T any](s []T, key func(*T) (sim.Time, uint64)) []T {
	sorted := true
	var prevAt sim.Time
	var prevSeq uint64
	for i := range s {
		at, seq := key(&s[i])
		if i > 0 && (at < prevAt || at == prevAt && seq < prevSeq) {
			sorted = false
			break
		}
		prevAt, prevSeq = at, seq
	}
	if sorted {
		return s
	}
	// Sort (time, seq, position) tags, not the elements: a flight
	// summary is 216 bytes.
	type tag struct {
		at  sim.Time
		seq uint64
		i   int
	}
	tags := make([]tag, len(s))
	for i := range s {
		at, seq := key(&s[i])
		tags[i] = tag{at, seq, i}
	}
	slices.SortFunc(tags, func(a, b tag) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq), cmp.Compare(a.i, b.i))
	})
	out := make([]T, len(s))
	for i, t := range tags {
		out[i] = s[t.i]
	}
	return out
}
