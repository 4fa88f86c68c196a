// Package smallbank implements the SmallBank banking benchmark
// (Cahill, Röhm, Fekete, TODS 2009) as §8.2 of the paper configures
// it: two single-cell tables (savings and checking balances), accounts
// selected by a Zipf distribution to model hot accounts.
//
// Every transaction touches the one balance column, so SmallBank has
// zero false conflicts by construction — the paper uses it to show
// that CREST's localized execution helps even when cell-level
// concurrency control cannot.
package smallbank

import (
	"math/rand"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/workload"
)

// Table ids.
const (
	SavingsTable  layout.TableID = 20
	CheckingTable layout.TableID = 21
)

// CellSize approximates the paper's 26.7-byte average cell.
const CellSize = 27

// InitialBalance is every account's starting balance in both tables.
const InitialBalance = 10_000

// Config sizes the workload.
type Config struct {
	Accounts int     // paper: 100 K
	Theta    float64 // Zipfian constant (paper default 0.99)
}

// DefaultConfig matches the paper.
func DefaultConfig() Config { return Config{Accounts: 100_000, Theta: 0.99} }

// Generator produces SmallBank transactions with the standard mix:
// Balance 15%, DepositChecking 15%, TransactSavings 15%, Amalgamate
// 15%, WriteCheck 25%, SendPayment 15%.
type Generator struct {
	cfg    Config
	picker *workload.KeyPicker
}

// New builds a generator.
func New(cfg Config) *Generator {
	if cfg.Accounts <= 1 {
		panic("smallbank: need at least two accounts")
	}
	return &Generator{cfg: cfg, picker: workload.NewKeyPicker(cfg.Accounts, cfg.Theta)}
}

// Name implements workload.Generator.
func (g *Generator) Name() string { return "smallbank" }

// Tables implements workload.Generator.
func (g *Generator) Tables() []workload.TableDef {
	return []workload.TableDef{
		{Schema: layout.Schema{ID: SavingsTable, Name: "savings", CellSizes: []int{CellSize}}, Capacity: g.cfg.Accounts},
		{Schema: layout.Schema{ID: CheckingTable, Name: "checking", CellSizes: []int{CellSize}}, Capacity: g.cfg.Accounts},
	}
}

// PartitionSafe implements workload.PartitionSafe: every transaction
// is a pure function of the caller's rng.
func (g *Generator) PartitionSafe() bool { return true }

// Load implements workload.Generator.
func (g *Generator) Load(fn func(layout.TableID, layout.Key, [][]byte)) {
	row := workload.NewRow([]int{CellSize})
	row.U64(0, InitialBalance)
	for k := 0; k < g.cfg.Accounts; k++ {
		fn(SavingsTable, layout.Key(k), row.Cells)
		fn(CheckingTable, layout.Key(k), row.Cells)
	}
}

// Next implements workload.Generator.
func (g *Generator) Next(rng *rand.Rand) *engine.Txn {
	switch p := rng.Float64(); {
	case p < 0.15:
		return g.balance(rng)
	case p < 0.30:
		return g.depositChecking(rng)
	case p < 0.45:
		return g.transactSavings(rng)
	case p < 0.60:
		return g.amalgamate(rng)
	case p < 0.85:
		return g.writeCheck(rng)
	default:
		return g.sendPayment(rng)
	}
}

// program is one transaction with everything it owns in one object: the
// ops (at most three), the values its hooks produce, and the numbers
// they work with. It is the transaction's State, which is how the
// hooks — package functions, not closures — reach it. Nothing of it
// belongs to the generator: Next runs on several partitions at once.
type program struct {
	txn   engine.Txn
	block [1]engine.Block
	ops   [3]engine.Op
	vals  workload.Values
	// out is vals' first Out chunk: all that a first attempt writing one
	// or two balances needs. Two entries are what the program's size
	// class has room for (TestTxnObjectSizeClasses).
	out [2][]byte
	// a and b are the program's numbers: the deltas of ops 0 and 1
	// (add), the sum moved so far (Amalgamate), the check's amount and
	// the savings balance (WriteCheck).
	a, b int64
}

// balanceCell is the one cell of both tables, as a read or write list.
var balanceCell = []int{0}

// newProgram returns a program of n ops, none filled in yet, whose
// hooks write writes values in total.
func newProgram(label string, n, writes int) *program {
	p := &program{}
	p.block[0].Ops = p.ops[:n]
	p.txn = engine.Txn{Label: label, Blocks: p.block[:], State: p, ReadOnly: writes == 0}
	p.vals.Size(writes*CellSize, writes)
	p.vals.FirstOut(p.out[:])
	return p
}

// put returns the one-value result of a hook: read's cell with its
// balance replaced by v.
func (p *program) put(read []byte, v int64) [][]byte {
	return p.vals.One(p.vals.PutU64(read, uint64(v)))
}

func readOp(table layout.TableID, key layout.Key, hook func(any, [][]byte) [][]byte) engine.Op {
	return engine.Op{Table: table, Key: key, ReadCells: balanceCell, Hook: hook}
}

func writeOp(table layout.TableID, key layout.Key, hook func(any, [][]byte) [][]byte) engine.Op {
	return engine.Op{Table: table, Key: key, ReadCells: balanceCell, WriteCells: balanceCell, Hook: hook}
}

func ignore(any, [][]byte) [][]byte { return nil }

// addA and addB add the program's a and b to a balance.
func addA(state any, read [][]byte) [][]byte {
	p := state.(*program)
	return p.put(read[0], int64(workload.GetU64(read[0]))+p.a)
}

func addB(state any, read [][]byte) [][]byte {
	p := state.(*program)
	return p.put(read[0], int64(workload.GetU64(read[0]))+p.b)
}

// balance reads both balances of one account (read-only).
func (g *Generator) balance(rng *rand.Rand) *engine.Txn {
	acct := g.picker.Pick(rng)
	p := newProgram("Balance", 2, 0)
	p.ops[0] = readOp(SavingsTable, acct, ignore)
	p.ops[1] = readOp(CheckingTable, acct, ignore)
	return &p.txn
}

// depositChecking adds a fixed amount to a checking balance.
func (g *Generator) depositChecking(rng *rand.Rand) *engine.Txn {
	p := newProgram("DepositChecking", 1, 1)
	p.a = 130
	p.ops[0] = writeOp(CheckingTable, g.picker.Pick(rng), addA)
	return &p.txn
}

// transactSavings adds to a savings balance.
func (g *Generator) transactSavings(rng *rand.Rand) *engine.Txn {
	p := newProgram("TransactSavings", 1, 1)
	p.a = 210
	p.ops[0] = writeOp(SavingsTable, g.picker.Pick(rng), addA)
	return &p.txn
}

// amalgamate moves all funds of account A into account B's checking.
func (g *Generator) amalgamate(rng *rand.Rand) *engine.Txn {
	pair := g.picker.AppendDistinct(make([]layout.Key, 0, 2), rng, 2) // on the stack
	p := newProgram("Amalgamate", 3, 3)
	p.ops[0] = writeOp(SavingsTable, pair[0], drainFirst)
	p.ops[1] = writeOp(CheckingTable, pair[0], drain)
	p.ops[2] = writeOp(CheckingTable, pair[1], addA)
	return &p.txn
}

// drainFirst is the attempt's first hook: it starts the sum over, so a
// retry does not credit B twice, and drains.
func drainFirst(state any, read [][]byte) [][]byte {
	state.(*program).a = 0
	return drain(state, read)
}

// drain empties a balance into the program's a.
func drain(state any, read [][]byte) [][]byte {
	p := state.(*program)
	p.a += int64(workload.GetU64(read[0]))
	return p.put(read[0], 0)
}

// writeCheck reads both balances and deducts a check (plus an
// overdraft penalty when funds are short) from checking.
func (g *Generator) writeCheck(rng *rand.Rand) *engine.Txn {
	acct := g.picker.Pick(rng)
	p := newProgram("WriteCheck", 2, 1)
	p.a = int64(rng.Intn(50) + 1)
	p.ops[0] = readOp(SavingsTable, acct, noteSavings)
	p.ops[1] = writeOp(CheckingTable, acct, cashCheck)
	return &p.txn
}

func noteSavings(state any, read [][]byte) [][]byte {
	state.(*program).b = int64(workload.GetU64(read[0]))
	return nil
}

func cashCheck(state any, read [][]byte) [][]byte {
	p := state.(*program)
	bal := int64(workload.GetU64(read[0]))
	take := p.a
	if p.b+bal < p.a {
		take++ // overdraft penalty
	}
	return p.put(read[0], bal-take)
}

// sendPayment transfers between two checking accounts.
func (g *Generator) sendPayment(rng *rand.Rand) *engine.Txn {
	pair := g.picker.AppendDistinct(make([]layout.Key, 0, 2), rng, 2) // on the stack
	amount := int64(rng.Intn(90) + 10)
	p := newProgram("SendPayment", 2, 2)
	p.a, p.b = -amount, amount
	p.ops[0] = writeOp(CheckingTable, pair[0], addA)
	p.ops[1] = writeOp(CheckingTable, pair[1], addB)
	return &p.txn
}

// ConservingGenerator restricts the mix to money-conserving
// transactions (Balance, Amalgamate, SendPayment), used by invariant
// tests: the sum of all balances never changes.
type ConservingGenerator struct{ *Generator }

// NewConserving wraps a generator with the conserving mix.
func NewConserving(cfg Config) *ConservingGenerator {
	return &ConservingGenerator{Generator: New(cfg)}
}

// Next implements workload.Generator.
func (g *ConservingGenerator) Next(rng *rand.Rand) *engine.Txn {
	switch p := rng.Float64(); {
	case p < 0.2:
		return g.balance(rng)
	case p < 0.6:
		return g.amalgamate(rng)
	default:
		return g.sendPayment(rng)
	}
}
