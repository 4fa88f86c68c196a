// Package placement is the data-placement seam of the sharded
// topology: a Policy decides which shard group owns a record and which
// node inside that group holds its primary copy. The memory pool
// routes every PrimaryOf/ReplicaNodes call through the configured
// policy, so adding a placement strategy means implementing one small
// interface and registering a name — nothing else in the data plane
// changes.
//
// Four policies ship:
//
//   - hash: the historical behavior. One finalizer-style hash of
//     (table, key) selects the primary; with one shard group it is
//     bit-for-bit the pre-sharding layout, which is what keeps every
//     golden artifact stable at -shards 1.
//   - modulo: naive striping — shard = key mod shards. The baseline
//     that loses throughput under skew because hot keys land on
//     different shards and force cross-shard commits.
//   - range: contiguous key ranges per shard, sized from the table
//     capacities the engine reports at load time.
//   - hotspot: modulo for cold keys plus an explicit override table
//     that pins the hottest keys to one shard, seeded from a
//     causality hotspot ranking (a probe run or a prior run's -why
//     export). Colocating the hot set turns most hot transactions
//     back into single-shard commits.
package placement

import (
	"fmt"
	"sort"

	"crest/internal/layout"
)

// Policy decides data placement. Shard picks the owning shard group
// of a record; Primary picks the node inside that group holding the
// primary copy (backups follow it in ring order). Both must be pure
// functions of their arguments: placement runs on the host during
// setup and routing and must never consume virtual time or
// randomness.
type Policy interface {
	// Name is the policy's name in the registry (New, Names).
	Name() string
	// Shard returns the owning shard group in [0, shards).
	Shard(table layout.TableID, key layout.Key, shards int) int
	// Primary returns the primary's index inside its group, in
	// [0, nodesPerShard).
	Primary(table layout.TableID, key layout.Key, nodesPerShard int) int
}

// CapacitySetter is implemented by policies that need table sizes
// (range placement). The engine reports each table's capacity when it
// is created, before any record is loaded.
type CapacitySetter interface {
	SetCapacity(table layout.TableID, capacity int)
}

// Mix is the 64-bit finalizer-style hash combining table and key that
// has always placed records (it predates the placement seam; the hash
// policy preserves it bit-for-bit).
func Mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// registry is the fixed table of policy names and their fresh-instance
// factories.
var registry = map[string]func() Policy{
	"hash":    func() Policy { return Hash{} },
	"modulo":  func() Policy { return Modulo{} },
	"range":   func() Policy { return NewRange() },
	"hotspot": func() Policy { return NewHotspot(nil) },
}

// Names lists the policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New returns a fresh instance of the named policy; the empty name
// selects hash (the historical behavior).
func New(name string) (Policy, error) {
	if name == "" {
		name = "hash"
	}
	factory, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("placement: unknown policy %q (have %v)", name, Names())
	}
	return factory(), nil
}

// Hash is the historical placement: Mix(table, key) spread over the
// nodes. At one shard group it reproduces the pre-sharding layout
// bit-for-bit; at more it spreads keys over groups by the same hash.
type Hash struct{}

// Name implements Policy.
func (Hash) Name() string { return "hash" }

// Shard implements Policy. The high hash bits pick the group so the
// group choice stays independent of the in-group primary choice.
func (Hash) Shard(table layout.TableID, key layout.Key, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int((Mix(uint64(table), uint64(key)) >> 32) % uint64(shards))
}

// Primary implements Policy, bit-for-bit the pre-sharding
// primaryIndex.
func (Hash) Primary(table layout.TableID, key layout.Key, nodesPerShard int) int {
	return int(Mix(uint64(table), uint64(key)) % uint64(nodesPerShard))
}

// Modulo is naive striping: shard = key mod shards, primary =
// (key / shards) mod nodes. It ignores skew entirely — the policy the
// crossover experiment shows losing throughput past a few shards.
type Modulo struct{}

// Name implements Policy.
func (Modulo) Name() string { return "modulo" }

// Shard implements Policy.
func (Modulo) Shard(table layout.TableID, key layout.Key, shards int) int {
	return int(uint64(key) % uint64(shards))
}

// Primary implements Policy. The odd-constant multiply decorrelates
// the in-group choice from the group choice (plain key mod nodes
// would alias the two whenever shards and group size share a factor,
// starving some nodes of primaries).
func (Modulo) Primary(table layout.TableID, key layout.Key, nodesPerShard int) int {
	return int((uint64(key) * 2654435761) % uint64(nodesPerShard))
}

// Range places contiguous key ranges on each shard: a table of
// capacity C splits into shards equal slices. Capacities arrive via
// SetCapacity when the engine creates tables; keys of unknown tables
// (or beyond capacity) fall back to modulo striping.
type Range struct {
	capacity map[layout.TableID]uint64
}

// NewRange builds a range policy with no capacities yet.
func NewRange() *Range {
	return &Range{capacity: map[layout.TableID]uint64{}}
}

// Name implements Policy.
func (*Range) Name() string { return "range" }

// SetCapacity implements CapacitySetter.
func (r *Range) SetCapacity(table layout.TableID, capacity int) {
	if capacity > 0 {
		r.capacity[table] = uint64(capacity)
	}
}

// Shard implements Policy.
func (r *Range) Shard(table layout.TableID, key layout.Key, shards int) int {
	c, ok := r.capacity[table]
	if !ok || uint64(key) >= c {
		return int(uint64(key) % uint64(shards))
	}
	return int(uint64(key) * uint64(shards) / c)
}

// Primary implements Policy. Inside a group the range order carries
// no balance information, so the hash spreads primaries evenly.
func (*Range) Primary(table layout.TableID, key layout.Key, nodesPerShard int) int {
	return int(Mix(uint64(table), uint64(key)) % uint64(nodesPerShard))
}

// HotKey pins one record to a shard group: an entry of the override
// table a Hotspot policy is seeded with.
type HotKey struct {
	Table layout.TableID `json:"table"`
	Key   layout.Key     `json:"key"`
	Shard int            `json:"shard"`
}

// Hotspot is contention-aware placement: an override table pins the
// hottest keys (by abort count and wait time, from a causality
// ranking) to chosen shards, and everything else falls back to modulo
// striping. Colocated hot keys make hot transactions single-shard
// again, which is the whole point: the commit-time cross-shard
// prepare is what modulo placement pays on nearly every hot
// transaction.
type Hotspot struct {
	hot map[hotspotKey]int
}

type hotspotKey struct {
	table layout.TableID
	key   layout.Key
}

// NewHotspot builds a hotspot policy seeded with the given overrides
// (nil is valid: pure modulo until Seed is called).
func NewHotspot(keys []HotKey) *Hotspot {
	h := &Hotspot{hot: map[hotspotKey]int{}}
	h.Seed(keys)
	return h
}

// Name implements Policy.
func (*Hotspot) Name() string { return "hotspot" }

// Seed adds overrides; later entries for the same record win.
func (h *Hotspot) Seed(keys []HotKey) {
	for _, k := range keys {
		h.hot[hotspotKey{k.Table, k.Key}] = k.Shard
	}
}

// Seeded reports how many records have overrides.
func (h *Hotspot) Seeded() int { return len(h.hot) }

// Shard implements Policy.
func (h *Hotspot) Shard(table layout.TableID, key layout.Key, shards int) int {
	if s, ok := h.hot[hotspotKey{table, key}]; ok {
		return s % shards
	}
	return int(uint64(key) % uint64(shards))
}

// Primary implements Policy.
func (*Hotspot) Primary(table layout.TableID, key layout.Key, nodesPerShard int) int {
	return int(Mix(uint64(table), uint64(key)) % uint64(nodesPerShard))
}
