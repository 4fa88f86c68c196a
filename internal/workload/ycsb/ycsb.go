// Package ycsb adapts the YCSB key-value benchmark for transaction
// processing, exactly as §8.2 of the paper describes: one table of
// records with four 40-byte cells; each transaction selects N distinct
// records (Zipf-distributed); read transactions read all cells of each
// record, write transactions update one random cell of each record.
//
// Beyond the paper's fixed mix, the generator supports YCSB's three
// request distributions (uniform, zipfian, latest) and logical
// inserts: insert transactions claim the next record at a
// monotonically advancing frontier, and the latest distribution skews
// selection toward the most recently inserted records. Rows are
// physically pre-allocated at load time, so inserts exercise the
// normal write path of every engine while the frontier models table
// growth.
package ycsb

import (
	"math/rand"
	"slices"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
)

// TableID is the YCSB table.
const TableID layout.TableID = 10

// Request distributions a Config can name.
const (
	DistUniform = "uniform"
	DistZipfian = "zipfian"
	DistLatest  = "latest"
)

// Config sizes the workload. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	Records    int     // table size (paper: 1 M; scaled default 100 K)
	N          int     // records per transaction (paper default 4)
	WriteRatio float64 // fraction of write transactions
	Theta      float64 // Zipfian constant (0 = uniform)
	CellSize   int     // bytes per cell (paper: 40)
	NumCells   int     // cells per record (paper: 4)

	// Distribution selects request key selection: "uniform",
	// "zipfian" or "latest". Empty keeps the historical behaviour
	// (uniform when Theta == 0, zipfian otherwise). "latest" skews
	// selection toward the most recently inserted records and draws
	// its recency ranks from a Zipf with constant Theta (0.99 when
	// Theta is 0).
	Distribution string
	// InsertProportion is the fraction of transactions that insert:
	// each insert claims the next record at the logical frontier by
	// writing all of its cells. Rows are physically pre-allocated, so
	// the frontier models table growth without engine-level space
	// allocation; once it reaches Records, inserts degrade to
	// rewriting the newest record.
	InsertProportion float64
	// PreLoaded is the number of records logically present before the
	// run when inserts are enabled (0 or > Records means all of them).
	// Only the latest distribution restricts selection to the
	// logically present prefix; uniform and zipfian select over the
	// whole key space.
	PreLoaded int
}

// DefaultConfig matches the paper's setup at a laptop-scale record
// count.
func DefaultConfig() Config {
	return Config{
		Records:    100_000,
		N:          4,
		WriteRatio: 0.5,
		Theta:      0.99,
		CellSize:   40,
		NumCells:   4,
	}
}

// Generator produces YCSB transactions.
type Generator struct {
	cfg    Config
	picker *workload.KeyPicker
	// recency draws ranks-behind-the-frontier for the latest
	// distribution; frontier is the number of logically inserted
	// records (keys < frontier exist, keys ≥ frontier are unclaimed
	// pre-allocated rows).
	recency  *workload.Zipf
	frontier int
	cells    cellLists
}

// cellLists are the lists every transaction's ops share, built once:
// nothing downstream writes to an op's ReadCells or WriteCells.
type cellLists struct {
	sizes []int   // the schema's cell sizes
	all   []int   // every cell: a read op's ReadCells
	one   [][]int // one[c] is {c}: a write op's ReadCells and WriteCells
}

func newCellLists(cfg Config) cellLists {
	l := cellLists{sizes: make([]int, cfg.NumCells), all: make([]int, cfg.NumCells), one: make([][]int, cfg.NumCells)}
	for c := range l.all {
		l.sizes[c], l.all[c] = cfg.CellSize, c
		l.one[c] = l.all[c : c+1 : c+1]
	}
	return l
}

// New builds a generator.
func New(cfg Config) *Generator {
	if cfg.Records <= 0 || cfg.N <= 0 || cfg.N > cfg.Records || cfg.NumCells <= 0 || cfg.CellSize < 8 {
		panic("ycsb: invalid config")
	}
	g := &Generator{cfg: cfg, frontier: cfg.Records, cells: newCellLists(cfg)}
	if cfg.PreLoaded > 0 && cfg.PreLoaded < cfg.Records {
		g.frontier = cfg.PreLoaded
	}
	switch cfg.Distribution {
	case "", DistZipfian, DistUniform:
		theta := cfg.Theta
		if cfg.Distribution == DistUniform {
			theta = 0
		}
		if cfg.Distribution == DistZipfian && theta == 0 {
			theta = 0.99
		}
		g.picker = workload.NewKeyPicker(cfg.Records, theta)
	case DistLatest:
		theta := cfg.Theta
		if theta == 0 {
			theta = 0.99
		}
		if g.frontier < cfg.N {
			panic("ycsb: latest distribution needs PreLoaded >= N")
		}
		g.recency = workload.NewZipf(uint64(cfg.Records), theta)
	default:
		panic("ycsb: unknown request distribution " + cfg.Distribution)
	}
	return g
}

// Name implements workload.Generator.
func (g *Generator) Name() string { return "ycsb" }

// PartitionSafe implements workload.PartitionSafe: draws are pure
// unless inserts move the frontier (which both the insert path and the
// latest distribution read).
func (g *Generator) PartitionSafe() bool { return g.cfg.InsertProportion == 0 }

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Frontier reports the number of logically inserted records: the next
// insert transaction claims key Frontier() (until the table is full).
func (g *Generator) Frontier() int { return g.frontier }

// Tables implements workload.Generator.
func (g *Generator) Tables() []workload.TableDef {
	return []workload.TableDef{{
		Schema:   layout.Schema{ID: TableID, Name: "usertable", CellSizes: slices.Clone(g.cells.sizes)},
		Capacity: g.cfg.Records,
	}}
}

// Load implements workload.Generator.
func (g *Generator) Load(fn func(layout.TableID, layout.Key, [][]byte)) {
	row := workload.NewRow(g.cells.sizes)
	for k := 0; k < g.cfg.Records; k++ {
		for c := range row.Cells {
			row.U64(c, uint64(k))
		}
		fn(TableID, layout.Key(k), row.Cells)
	}
}

// program is one transaction with everything it owns: its ops and the
// values its hooks produce. It is the transaction's State, which is how
// the hooks — package functions, not closures — reach it. Nothing of
// it belongs to the generator: without inserts Next runs on several
// partitions at once.
type program struct {
	txn   engine.Txn
	block [1]engine.Block
	// ops holds the ops of a program of at most the paper's N = 4, in
	// no more bytes than the program and a separate op array would take
	// (TestTxnObjectSizeClasses). A longer program makes its own.
	ops  [4]engine.Op
	vals workload.Values
	key  uint64 // an insert's key, which is also the value of its cells
}

// newProgram returns a program of n ops, none filled in yet.
func newProgram(n int) *program {
	p := &program{}
	if n <= len(p.ops) {
		p.block[0].Ops = p.ops[:n]
	} else {
		p.block[0].Ops = make([]engine.Op, n)
	}
	p.txn = engine.Txn{Blocks: p.block[:], State: p}
	return p
}

// pickKeys draws N distinct keys under the configured distribution
// into the Key of each of ops.
func (g *Generator) pickKeys(rng *rand.Rand, ops []engine.Op) {
	for n := 0; n < len(ops); {
		var key layout.Key
		if g.recency == nil {
			key = g.picker.Pick(rng)
		} else {
			// Latest: rank r means "r-th most recently inserted record", so
			// hot keys hug the frontier and migrate as inserts land.
			r := g.recency.Next(rng) % uint64(g.frontier)
			key = layout.Key(uint64(g.frontier) - 1 - r)
		}
		if !hasKey(ops[:n], key) {
			ops[n].Key = key
			n++
		}
	}
}

// hasKey scans the handful of ops picked so far.
func hasKey(ops []engine.Op, key layout.Key) bool {
	for i := range ops {
		if ops[i].Key == key {
			return true
		}
	}
	return false
}

// insertTxn claims the next record at the frontier by writing every
// cell. The row is physically pre-allocated, so engines execute it as
// a plain read-modify-write of all cells; when the table is full the
// newest record is rewritten instead (the frontier stops moving).
func (g *Generator) insertTxn() *engine.Txn {
	key := g.frontier
	if key >= g.cfg.Records {
		key = g.cfg.Records - 1
	} else {
		g.frontier++
	}
	p := newProgram(1)
	p.key = uint64(key)
	p.vals.Size(g.cfg.NumCells*g.cfg.CellSize, g.cfg.NumCells)
	p.txn.Label = "ycsb-insert"
	p.block[0].Ops[0] = engine.Op{
		Table: TableID,
		Key:   layout.Key(key),
		// Insert marks the claim so scenario drift never remaps a
		// frontier key; engines execute it as a plain full-row
		// read-modify-write (the row is pre-allocated).
		Insert:     true,
		ReadCells:  g.cells.all,
		WriteCells: g.cells.all,
		Hook:       fillRow,
	}
	return &p.txn
}

// fillRow writes the insert's key into every cell.
func fillRow(state any, read [][]byte) [][]byte {
	p := state.(*program)
	cells := p.vals.Out(len(read))
	for c := range cells {
		cells[c] = p.vals.U64(p.key, len(read[c]))
	}
	return cells
}

// increment adds one to the cell it read.
func increment(state any, read [][]byte) [][]byte {
	p := state.(*program)
	return p.vals.One(p.vals.PutU64(read[0], workload.GetU64(read[0])+1))
}

func ignore(any, [][]byte) [][]byte { return nil }

// Next implements workload.Generator.
func (g *Generator) Next(rng *rand.Rand) *engine.Txn {
	// The insert draw is guarded so configurations without inserts
	// keep the historical RNG draw sequence byte-for-byte.
	if g.cfg.InsertProportion > 0 && rng.Float64() < g.cfg.InsertProportion {
		return g.insertTxn()
	}
	p := newProgram(g.cfg.N)
	ops := p.block[0].Ops
	g.pickKeys(rng, ops)
	if rng.Float64() >= g.cfg.WriteRatio {
		p.txn.Label, p.txn.ReadOnly = "ycsb-read", true
		for i := range ops {
			ops[i].Table, ops[i].ReadCells, ops[i].Hook = TableID, g.cells.all, ignore
		}
		return &p.txn
	}
	p.txn.Label = "ycsb-write"
	p.vals.Size(g.cfg.N*g.cfg.CellSize, g.cfg.N)
	for i := range ops {
		one := g.cells.one[rng.Intn(g.cfg.NumCells)]
		ops[i].Table, ops[i].ReadCells, ops[i].WriteCells, ops[i].Hook = TableID, one, one, increment
	}
	return &p.txn
}
