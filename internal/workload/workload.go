// Package workload defines the benchmark-workload interface shared by
// the TPC-C, SmallBank and YCSB generators (sub-packages), plus the
// skewed key-selection machinery (Zipf) the paper's contention knobs
// are built on.
package workload

import (
	"encoding/binary"
	"math/rand"
	"slices"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/sim"
)

// TableDef describes one table a workload needs: its schema and how
// many records it will hold.
type TableDef struct {
	Schema   layout.Schema
	Capacity int
}

// Generator produces transactions for one benchmark workload.
type Generator interface {
	// Name identifies the workload ("tpcc", "smallbank", "ycsb").
	Name() string
	// Tables lists the tables to create before loading.
	Tables() []TableDef
	// Load emits every initial record through fn. cells is the
	// generator's reused row for the table (see Row): fn reads it
	// during the call and must not keep it or any cell of it.
	Load(fn func(table layout.TableID, key layout.Key, cells [][]byte))
	// Next generates one transaction using rng for all randomness.
	Next(rng *rand.Rand) *engine.Txn
}

// TimedGenerator is a Generator whose traffic varies over virtual
// time: the harness gates each coordinator's admission through Gate
// and generates through NextAt so the generator can see the virtual
// clock (scenario timelines: load phases and hotspot drift). Both
// methods are deterministic functions of their arguments plus rng —
// they draw no randomness beyond what Next would — so a timed run is
// exactly as reproducible as a plain one.
type TimedGenerator interface {
	Generator
	// NextAt generates one transaction as of virtual time now.
	NextAt(now sim.Time, rng *rand.Rand) *engine.Txn
	// Gate reports how long coordinator coord (of total) must wait
	// before admitting its next transaction at virtual time now: 0
	// admits immediately, a positive duration parks the coordinator
	// until the next admission decision point.
	Gate(now sim.Time, coord, total int) sim.Duration
}

// PartitionSafe is the capability a generator declares when its
// Next/NextAt draws are pure functions of their arguments — no
// generator state is mutated and none of the read state ever changes
// after construction — so coordinators running in different simulation
// partitions (internal/sim.World) may share one generator instance
// concurrently. Generators without the method, or answering false
// (e.g. YCSB with inserts, whose frontier moves; TPC-C, whose history
// sequence advances), force the harness onto the sequential scheduler.
type PartitionSafe interface {
	PartitionSafe() bool
}

// IsPartitionSafe reports whether g declares the PartitionSafe
// capability and answers true.
func IsPartitionSafe(g Generator) bool {
	ps, ok := g.(PartitionSafe)
	return ok && ps.PartitionSafe()
}

// U64 encodes v as the 8 leading bytes of a cell of size n (the rest
// is zero padding). Workload cells store integers this way so hooks
// can do arithmetic on fixed-size cells.
func U64(v uint64, n int) []byte {
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// GetU64 decodes the integer stored by U64.
func GetU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// PutU64 returns a copy of cell b with its integer replaced by v and
// its padding kept. It never writes to b: a hook's read values are
// borrowed (see engine.Op.Hook).
func PutU64(b []byte, v uint64) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	binary.LittleEndian.PutUint64(out, v)
	return out
}

// Text fills a cell of size n with a deterministic printable pattern
// seeded by tag, for non-numeric columns.
func Text(tag uint64, n int) []byte {
	b := make([]byte, n)
	fillText(b, tag)
	return b
}

func fillText(b []byte, tag uint64) {
	x := tag*0x9e3779b97f4a7c15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = 'a' + byte(x%26)
	}
}

// Values is the store the hooks of one transaction carve their outputs
// from: U64, PutU64 and Text as above, and Out for the [][]byte a hook
// returns, without one heap object per value. A generator embeds it in
// the transaction's state and sizes it to what one attempt produces.
//
// It is append-only. A value, once returned, is never written again and
// never handed out again — a retry of the transaction carves new bytes —
// because the engines keep what a hook returned without copying it: a
// CREST version, the base cell a flush folded it into, or another
// transaction's ReadVals may still point at an earlier attempt's
// output. When a chunk is used up the next one is allocated and the old
// one is left to whoever still refers to it. Chunks are one attempt's
// size, not larger, so that a cached record whose base cell aliases one
// value keeps that much alive and no more. For the same reason the byte
// chunks are always objects of their own, while the first Out chunk may
// be an array in the transaction's state (FirstOut): nothing keeps an
// Out slice beyond the attempt that returned it.
type Values struct {
	bytes, outs int32 // what one attempt carves: the size of a chunk
	buf         []byte
	out         [][]byte
}

// Size declares what one attempt carves: bytes of values and outs
// entries of Out in total.
func (a *Values) Size(bytes, outs int) { a.bytes, a.outs = int32(bytes), int32(outs) }

// FirstOut makes first, storage of the caller's that nothing else
// writes, the chunk Out carves from before it allocates one.
func (a *Values) FirstOut(first [][]byte) { a.out = first[:0] }

// carve returns n fresh zero elements from the chunk *buf, which it
// replaces by a new one of at least chunk elements when n do not fit.
func carve[T any](buf *[]T, n int, chunk int32) []T {
	if n > cap(*buf)-len(*buf) {
		*buf = make([]T, 0, max(n, int(chunk)))
	}
	lo := len(*buf)
	*buf = (*buf)[:lo+n]
	return (*buf)[lo : lo+n : lo+n]
}

// Out returns a fresh slice of n values for a hook to fill and return.
func (a *Values) Out(n int) [][]byte { return carve(&a.out, n, a.outs) }

// One returns v as a hook's one-value result.
func (a *Values) One(v []byte) [][]byte {
	out := a.Out(1)
	out[0] = v
	return out
}

// U64 is the package's U64 carved from a.
func (a *Values) U64(v uint64, n int) []byte {
	b := carve(&a.buf, n, a.bytes)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// PutU64 is the package's PutU64 carved from a.
func (a *Values) PutU64(b []byte, v uint64) []byte {
	out := carve(&a.buf, len(b), a.bytes)
	copy(out, b)
	binary.LittleEndian.PutUint64(out, v)
	return out
}

// Text is the package's Text carved from a.
func (a *Values) Text(tag uint64, n int) []byte {
	b := carve(&a.buf, n, a.bytes)
	fillText(b, tag)
	return b
}

// Row is one table's load row: a generator's Load fills the same Row
// for every record of the table and hands Cells to the sink, which
// reads it during the call and must not keep it.
type Row struct {
	Cells [][]byte
}

// NewRow allocates a row of the given cell sizes.
func NewRow(sizes []int) *Row {
	total := 0
	for _, n := range sizes {
		total += n
	}
	block := make([]byte, total)
	r := &Row{Cells: make([][]byte, len(sizes))}
	for i, n := range sizes {
		r.Cells[i], block = block[:n:n], block[n:]
	}
	return r
}

// U64 stores v in cell as the package's U64 does.
func (r *Row) U64(cell int, v uint64) {
	b := r.Cells[cell]
	binary.LittleEndian.PutUint64(b, v)
	clear(b[8:])
}

// Text fills cell as the package's Text does.
func (r *Row) Text(cell int, tag uint64) { fillText(r.Cells[cell], tag) }

// KeyPicker selects record indices in [0, n) — uniformly or Zipf-
// distributed — and scrambles ranks so hot keys spread over the key
// space (and thus over memory nodes).
type KeyPicker struct {
	n     uint64
	zipf  *Zipf
	step  uint64
	shift uint64
}

// NewKeyPicker builds a picker over n keys with Zipfian constant
// theta; theta == 0 selects uniformly.
func NewKeyPicker(n int, theta float64) *KeyPicker {
	if n <= 0 {
		panic("workload: KeyPicker over empty key space")
	}
	p := &KeyPicker{n: uint64(n), step: scrambleStep(uint64(n)), shift: uint64(n) / 3}
	if theta > 0 {
		p.zipf = NewZipf(uint64(n), theta)
	}
	return p
}

// scrambleStep returns a multiplier coprime to n, so rank→key is a
// permutation.
func scrambleStep(n uint64) uint64 {
	step := n*7/11 + 3
	for gcd(step, n) != 1 {
		step++
	}
	return step
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Pick draws one key.
func (p *KeyPicker) Pick(rng *rand.Rand) layout.Key {
	var rank uint64
	if p.zipf != nil {
		rank = p.zipf.Next(rng)
	} else {
		rank = uint64(rng.Int63n(int64(p.n)))
	}
	return layout.Key((rank*p.step + p.shift) % p.n)
}

// PickDistinct draws k distinct keys.
func (p *KeyPicker) PickDistinct(rng *rand.Rand, k int) []layout.Key {
	return p.AppendDistinct(make([]layout.Key, 0, k), rng, k)
}

// AppendDistinct appends k keys to dst, drawn like PickDistinct's and
// distinct from one another. A transaction picks a handful, so a draw
// is checked against the earlier ones by scanning them.
func (p *KeyPicker) AppendDistinct(dst []layout.Key, rng *rand.Rand, k int) []layout.Key {
	if uint64(k) > p.n {
		panic("workload: more distinct keys than key space")
	}
	start := len(dst)
	for len(dst) < start+k {
		if key := p.Pick(rng); !slices.Contains(dst[start:], key) {
			dst = append(dst, key)
		}
	}
	return dst
}
