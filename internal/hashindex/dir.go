package hashindex

import "crest/internal/layout"

// Dir is a loaded table's host-side key → offset directory, the state
// compute-node address caches are warmed from. Loaders write a table's
// records into consecutive heap slots, and the benchmark loaders number
// their keys 0, 1, 2, … in that same order. While keys keep arriving
// that way, key k sits at base + k × stride and the directory stores
// nothing: a lookup is a compare and a multiply, not a map probe and
// its cache miss. The first key that breaks the run, and every key
// after it, goes to a map.
type Dir struct {
	base, stride uint64
	prefix       uint64                // keys 0 … prefix-1 are held by arithmetic
	capacity     int                   // sizes the map when the run breaks
	rest         map[layout.Key]uint64 // nil while every key is in the prefix
}

// NewDir returns an empty directory whose arithmetic prefix maps key k
// to base + k × stride, for a table of at most capacity records.
func NewDir(base uint64, stride, capacity int) *Dir {
	return &Dir{base: base, stride: uint64(stride), capacity: capacity}
}

// Add records key at off and reports false, storing nothing, when key
// is already present.
func (d *Dir) Add(key layout.Key, off uint64) bool {
	if d.rest == nil && uint64(key) == d.prefix && off == d.base+d.prefix*d.stride {
		d.prefix++
		return true
	}
	if uint64(key) < d.prefix {
		return false
	}
	if d.rest == nil {
		d.rest = make(map[layout.Key]uint64, max(d.capacity-int(d.prefix), 0))
	} else if _, dup := d.rest[key]; dup {
		return false
	}
	d.rest[key] = off
	return true
}

// Get returns key's offset.
func (d *Dir) Get(key layout.Key) (uint64, bool) {
	if uint64(key) < d.prefix {
		return d.base + uint64(key)*d.stride, true
	}
	off, ok := d.rest[key]
	return off, ok
}

// Prefix reports how many keys the arithmetic prefix holds: keys 0 …
// Prefix()-1, in that load order.
func (d *Dir) Prefix() int { return int(d.prefix) }

// Len reports the number of keys held.
func (d *Dir) Len() int { return int(d.prefix) + len(d.rest) }

// Range calls fn once per key with its offset: the prefix in key
// order, then the map's keys in no fixed order.
func (d *Dir) Range(fn func(layout.Key, uint64)) {
	for k := uint64(0); k < d.prefix; k++ {
		fn(layout.Key(k), d.base+k*d.stride)
	}
	for k, off := range d.rest {
		fn(k, off)
	}
}
