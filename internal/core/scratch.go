package core

import "crest/internal/engine"

// execScratch is the localized path's attempt scratch: the shared
// batch builder, arena and log buffer (engine.Scratch, which also says
// why attempts check scratch out instead of owning it), plus the access
// slab and the lists admission, local locking and release reuse.
// Values that escape the attempt — txnState, version, object contents,
// log bytes in the memory pool — are allocated normally.
type execScratch struct {
	engine.Scratch

	slab      engine.Slab[access]
	accs      []*access
	blockAccs []*access
	lockOrder []*access
	deps      depSet
	pend      []admitPend
	fetches   []*access
	locks     []*access
	batchAccs [][]*access
	objs      []*object
	work      []*object
	fins      []fin
	plans     []flushPlan // every fin's flush plans, back to back
	depIDs    []uint64
}

// admitPend is one object's slots in an admission round-trip.
type admitPend struct {
	obj      *object
	acc      *access
	casIdx   int // index into the node batch, -1 if none
	readIdx  int
	bits     uint64
	preLocks uint64 // lock bits held before this admission
}

// reset readies a recycled scratch for its next attempt.
func (sc *execScratch) reset() {
	sc.slab.Reset()
	sc.Arena.Reset()
	sc.accs = sc.accs[:0]
	sc.deps.list = sc.deps.list[:0]
}
