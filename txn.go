package crest

import (
	"crest/internal/engine"
)

// Op is one record access inside a transaction: which cells it reads,
// which it writes, and the stored-procedure logic deriving the written
// values from the read ones. Each record a transaction touches appears
// in exactly one Op.
type Op struct {
	Table TableID
	Key   Key
	// KeyFn, when set, resolves the key from the transaction state
	// when the op's block starts — a key dependency: the record's key
	// derives from values read in earlier blocks.
	KeyFn func(state any) Key

	ReadCells  []int
	WriteCells []int

	// Hook receives the ReadCells values (private copies, in order)
	// and returns new values for the WriteCells (in order). It must be
	// deterministic given the state and read values, as it may run
	// several times across retries.
	Hook func(state any, read [][]byte) [][]byte
}

// Txn is a transaction under construction: an ordered list of blocks
// (pipeline stages, §5.2 of the paper) plus optional state threaded
// through every hook.
type Txn struct {
	label  string
	state  any
	blocks []engine.Block
}

// NewTxn starts a transaction with a label used in diagnostics.
func NewTxn(label string) *Txn { return &Txn{label: label} }

// WithState attaches the state value passed to every hook and KeyFn.
func (t *Txn) WithState(state any) *Txn {
	t.state = state
	return t
}

// AddBlock appends one pipeline block. Ops whose keys depend on values
// read in earlier blocks belong in a later block.
func (t *Txn) AddBlock(ops ...Op) *Txn {
	blk := engine.Block{}
	for _, op := range ops {
		op := op
		eop := engine.Op{
			Table:      op.Table,
			Key:        op.Key,
			ReadCells:  op.ReadCells,
			WriteCells: op.WriteCells,
			Hook:       op.Hook,
		}
		if op.KeyFn != nil {
			eop.KeyFn = op.KeyFn
		}
		if eop.Hook == nil {
			eop.Hook = func(any, [][]byte) [][]byte {
				if len(op.WriteCells) == 0 {
					return nil
				}
				panic("crest: op with WriteCells needs a Hook")
			}
		}
		blk.Ops = append(blk.Ops, eop)
	}
	t.blocks = append(t.blocks, blk)
	return t
}

// build materializes the engine transaction, once per execution: its
// attempts retry that one *engine.Txn, which is how the observers tell
// a retry from a new transaction. An attempt does not write to it.
func (t *Txn) build() *engine.Txn {
	e := &engine.Txn{Label: t.label, State: t.state, Blocks: t.blocks}
	e.ComputeReadOnly()
	return e
}
