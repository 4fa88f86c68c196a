package trace

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
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
// new one evicts the oldest. Its storage is one slice of capacity
// elements, allocated on the first write, so a ring nothing writes to
// costs nothing; pages of it that are never written are never touched,
// so a short run commits only what it wrote. An element's address is
// stable: a recorder fills the slot Next returns in place. View hands
// the buffered elements out without copying them; the ring copies its
// storage once, on its next write, if there is one. The zero Ring is
// unusable; build one with NewRing.
type Ring[T any] struct {
	buf     []T // capacity elements; nil before the first write and while viewed
	view    []T // the buffered elements, oldest first, while viewed
	cap     int
	n       int // buffered elements
	head    int // index of the oldest element once the ring has wrapped
	dropped uint64
}

// NewRing returns a ring holding at most capacity elements. Nothing is
// allocated until the first write.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{cap: capacity}
}

// Next returns the slot of the next element, evicting (and counting)
// the oldest when the ring is full. The slot holds whatever was there
// before; the caller overwrites all of it.
func (r *Ring[T]) Next() *T {
	if r.buf == nil {
		r.own()
	}
	i := r.n
	if i < r.cap {
		r.n++
	} else {
		i = r.head
		if r.head++; r.head == r.cap {
			r.head = 0
		}
		r.dropped++
	}
	return &r.buf[i]
}

// own gives the ring storage it may write: a fresh slice on the first
// write, a copy of the viewed elements on the first after a View.
func (r *Ring[T]) own() {
	r.buf = make([]T, r.cap)
	copy(r.buf, r.view)
	r.view = nil
}

// Len reports the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap reports the ring's capacity.
func (r *Ring[T]) Cap() int { return r.cap }

// Dropped reports how many elements were evicted.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// At returns the i-th oldest buffered element, 0 <= i < Len(). It
// reads the ring as it is, viewed or not, and moves nothing.
func (r *Ring[T]) At(i int) T {
	if r.buf == nil {
		return r.view[i]
	}
	if i += r.head; i >= r.cap {
		i -= r.cap
	}
	return r.buf[i]
}

// View returns the buffered elements, oldest to newest, as one slice
// that aliases the ring's storage: a wrapped ring is first rotated in
// place so that its oldest element comes first. The ring never writes
// into a slice it handed out — its next write copies the storage first —
// so the view stays what it was when taken; its capacity is its length,
// so appending to it copies too. The caller must not write into it.
// View moves the storage, so it is a write like Next: whoever may call
// Next, and only they, may call View.
func (r *Ring[T]) View() []T {
	if r.buf == nil {
		return r.view // never written, or not written since the last View
	}
	if r.head != 0 {
		slices.Reverse(r.buf[:r.head])
		slices.Reverse(r.buf[r.head:])
		slices.Reverse(r.buf)
		r.head = 0
	}
	r.view, r.buf = r.buf[:r.n:r.n], nil
	return r.view
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

// MergeByTime folds per-member streams (in Members order: the root,
// then each partition's child) into one slice ordered by (virtual
// time, partition, seq), the root counting as partition -1 — the same
// key the partitioned scheduler merges cross-partition mailboxes by.
// timeOf extracts an element's time; its member-local sequence number (an
// emission counter or a strided id) is its position in its stream. The
// order is a pure function of the simulation, never of the worker
// count.
//
// The streams are ring views, so the merge never writes into them: fix,
// when not nil, is applied to each element once it is in the output,
// with the index of the stream it came from (trace rewrites its string
// codes so). A lone stream that needs no fix is returned as it is.
//
// Each stream must already be in (time, seq) order, as a member that
// emits on its partition's clock records it — every trace and
// causality stream does (TestMemberStreamsArriveSorted); members that
// are not go through SortByTime instead. The order is trusted, not
// checked: the streams are merged k ways on (time, partition), k the
// partition count, by a scan of the heads, and the output is written
// once.
func MergeByTime[T any](streams [][]T, timeOf func(*T) sim.Time, fix func(member int, e *T)) []T {
	total := 0
	heads := make([]sim.Time, len(streams))
	for i, s := range streams {
		total += len(s)
		if len(s) > 0 {
			heads[i] = timeOf(&s[0])
		}
	}
	if len(streams) == 1 && total > 0 && fix == nil {
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
			if t := timeOf(&s[j]); t != at {
				heads[best] = t
				break
			}
			j++
		}
		from := len(out)
		out = append(out, s[pos[best]:j]...)
		if fix != nil {
			for k := from; k < len(out); k++ {
				fix(best, &out[k])
			}
		}
		pos[best] = j
	}
	return out
}

// SortByTime writes the elements of a family's members into one new
// slice in MergeByTime's order, for members that are not in (time, seq)
// order or not in one slice: member m holds lens[m] elements, the jth
// at elem(m, j), in the order it recorded them. Elements are ordered by
// (time, member, seq, position) — what merging each member sorted by
// (time, seq, position) would give — by sorting small tags, not the
// elements (a flight summary is 216 bytes), and then gathered; elem
// may be called from two goroutines at once.
//
// The tags are first placed by time into buckets of equal spans of
// time, about one per tag, so only the tags that share a bucket are
// compared, and a seq is read only when two times tie. Elements
// recorded in an order close to their time order — flight summaries
// enter their ring as their transactions end, a few transactions'
// lengths away from begin order — spread evenly, and the sort is
// linear; however they bunch, it is no worse than one comparison sort.
func SortByTime[T any](lens []int, elem func(m, j int) *T, key func(*T) (sim.Time, uint64)) []T {
	total := 0
	for _, n := range lens {
		total += n
	}
	// The output is the largest allocation of a drain, and taking fresh
	// pages for it costs more than sorting: with a second core, it is
	// allocated there while the tags are sorted, and then each core
	// gathers half of it.
	helped := total >= sortHelpAt && runtime.GOMAXPROCS(0) > 1
	var made chan []T
	if helped {
		made = make(chan []T, 1)
		go func() { made <- make([]T, total) }()
	}
	tags := make([]timeTag, 0, total)
	lo, hi := sim.Time(math.MaxInt64), sim.Time(math.MinInt64)
	for m, n := range lens {
		for j := 0; j < n; j++ {
			at, _ := key(elem(m, j))
			tags = append(tags, timeTag{at, int32(m), int32(j)})
			lo, hi = min(lo, at), max(hi, at)
		}
	}
	if total > 1 {
		sortTimeTags(tags, lo, hi, func(a, b timeTag) int {
			if a.at != b.at {
				return cmp.Compare(a.at, b.at)
			}
			if a.m != b.m {
				return cmp.Compare(a.m, b.m)
			}
			_, aseq := key(elem(int(a.m), int(a.j)))
			_, bseq := key(elem(int(b.m), int(b.j)))
			if aseq != bseq {
				return cmp.Compare(aseq, bseq)
			}
			return cmp.Compare(a.j, b.j)
		})
	}
	var out []T
	gather := func(from, to int) {
		for i := from; i < to; i++ {
			out[i] = *elem(int(tags[i].m), int(tags[i].j))
		}
	}
	if !helped {
		out = make([]T, total)
		gather(0, total)
		return out
	}
	out = <-made
	half := total / 2
	gathered := make(chan struct{})
	go func() {
		gather(half, total)
		close(gathered)
	}()
	gather(0, half)
	<-gathered
	return out
}

// sortHelpAt is the fewest elements SortByTime uses a second core for.
const sortHelpAt = 1 << 12

// timeTag is SortByTime's sort key for the jth element of member m:
// its time, and where to find its seq when two times tie.
type timeTag struct {
	at   sim.Time
	m, j int32
}

// sortTimeTags sorts tags whose times lie in [lo, hi] by compare, which
// orders by time first: an in-place counting sort into buckets of
// equal spans of time, about one per tag, then a comparison sort of
// each bucket.
func sortTimeTags(tags []timeTag, lo, hi sim.Time, compare func(a, b timeTag) int) {
	shift := 0
	for (uint64(hi)-uint64(lo))>>shift >= uint64(len(tags)) {
		shift++
	}
	bucket := func(t *timeTag) uint64 { return (uint64(t.at) - uint64(lo)) >> shift }
	// Bucket b is tags[ends[b-1]:ends[b]], ends[-1] being 0; next[b] is
	// its first slot not yet holding one of its own tags.
	n := (uint64(hi)-uint64(lo))>>shift + 1
	ends := make([]int32, n)
	for i := range tags {
		ends[bucket(&tags[i])]++
	}
	next := make([]int32, n)
	for b, sum := range ends {
		if b > 0 {
			sum += ends[b-1]
			next[b] = ends[b-1]
		}
		ends[b] = sum
	}
	// Each tag moves straight to a free slot of its bucket, displacing
	// the tag there, which moves on in turn.
	for b := range ends {
		for next[b] < ends[b] {
			t := tags[next[b]]
			for c := bucket(&t); c != uint64(b); c = bucket(&t) {
				tags[next[c]], t = t, tags[next[c]]
				next[c]++
			}
			tags[next[b]] = t
			next[b]++
		}
	}
	from := int32(0)
	for _, to := range ends {
		if to-from > 1 {
			slices.SortFunc(tags[from:to], compare)
		}
		from = to
	}
}
