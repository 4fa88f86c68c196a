package core

import (
	"encoding/binary"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

type fixture struct {
	env *sim.Env
	sys *System
	cns []*ComputeNode
}

func newFixture(t testing.TB, opts Options, mns, cnCount, replicas, records int, history bool) *fixture {
	t.Helper()
	return newGroupsFixture(t, opts, 1, mns, cnCount, replicas, records, history)
}

// newGroupsFixture is newFixture on groups shard groups of mns memory
// nodes each, records placed by hash.
func newGroupsFixture(t testing.TB, opts Options, groups, mns, cnCount, replicas, records int, history bool) *fixture {
	t.Helper()
	env := sim.NewEnv(13)
	params := rdma.DefaultParams()
	params.JitterPct = 0
	fabric := rdma.NewFabric(env, params)
	pool, err := memnode.NewShardedPool(fabric, groups, mns, 32<<20, replicas, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB(pool)
	if history {
		db.Attach(engine.Observers{History: engine.NewHistory()}, env, 0)
	}
	sys := New(db, opts)
	sys.CreateTable(layout.Schema{ID: 1, Name: "kv", CellSizes: []int{8, 8, 8}}, records+16)
	for k := 0; k < records; k++ {
		sys.Load(1, layout.Key(k), [][]byte{word(uint64(k)), word(uint64(k)), word(uint64(k))})
	}
	if err := sys.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	f := &fixture{env: env, sys: sys}
	for i := 0; i < cnCount; i++ {
		cn := sys.NewComputeNode(i)
		cn.WarmCache()
		f.cns = append(f.cns, cn)
	}
	return f
}

func word(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func incTxn(key layout.Key, cell int, delta uint64) *engine.Txn {
	t := &engine.Txn{Label: "inc"}
	t.Blocks = []engine.Block{{Ops: []engine.Op{{
		Table:      1,
		Key:        key,
		ReadCells:  []int{cell},
		WriteCells: []int{cell},
		Hook: func(_ any, read [][]byte) [][]byte {
			return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + delta)}
		},
	}}}}
	return t
}

func readTxn(key layout.Key, cells []int, out *[]uint64) *engine.Txn {
	t := &engine.Txn{Label: "read", ReadOnly: true}
	t.Blocks = []engine.Block{{Ops: []engine.Op{{
		Table:     1,
		Key:       key,
		ReadCells: cells,
		Hook: func(_ any, read [][]byte) [][]byte {
			*out = (*out)[:0]
			for _, r := range read {
				*out = append(*out, binary.LittleEndian.Uint64(r))
			}
			return nil
		},
	}}}}
	return t
}

// poolCell reads a cell value directly from a node's region.
func (f *fixture) poolCell(node *memnode.Node, key layout.Key, cell int) uint64 {
	tab := f.sys.db.Table(1)
	off, ok := tab.AddrOf(key)
	if !ok {
		panic("key not loaded")
	}
	lay := f.sys.layouts[1]
	return binary.LittleEndian.Uint64(node.Region.Bytes()[off+uint64(lay.CellValueOff(cell)):])
}

// poolHeader reads a record header from a node's region.
func (f *fixture) poolHeader(node *memnode.Node, key layout.Key) layout.Header {
	tab := f.sys.db.Table(1)
	off, _ := tab.AddrOf(key)
	return layout.DecodeHeader(node.Region.Bytes()[off:])
}

func run(t testing.TB, f *fixture) {
	t.Helper()
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func retryUntilCommit(p *sim.Proc, c *Coordinator, txn *engine.Txn) engine.Attempt {
	retry := engine.DefaultRetryPolicy()
	for attempt := 1; ; attempt++ {
		if a := c.Execute(p, txn); a.Committed {
			return a
		}
		p.Sleep(retry.Backoff(attempt, p.Rand()))
	}
}

func TestLocalizedSingleWriteCommits(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 1, 4, false)
	coord := f.cns[0].NewCoordinator(0)
	f.env.Spawn("c", func(p *sim.Proc) {
		if a := coord.Execute(p, incTxn(2, 1, 100)); !a.Committed {
			t.Errorf("abort: %v", a.Reason)
		}
	})
	run(t, f)
	for _, n := range f.sys.db.Pool.ReplicaNodes(1, 2) {
		if got := f.poolCell(n, 2, 1); got != 102 {
			t.Fatalf("node %d cell = %d, want 102", n.ID, got)
		}
		h := f.poolHeader(n, 2)
		if h.EN[1] != 1 {
			t.Fatalf("node %d EN[1] = %d, want 1", n.ID, h.EN[1])
		}
		if h.EN[0] != 0 || h.EN[2] != 0 {
			t.Fatalf("untouched cell epochs bumped: %v", h.EN[:3])
		}
	}
	// Everything released: no cached objects, no pool locks.
	if n := f.cns[0].CachedObjects(); n != 0 {
		t.Fatalf("%d objects leaked in record cache", n)
	}
	if h := f.poolHeader(f.sys.db.Pool.PrimaryOf(1, 2), 2); h.Lock != 0 {
		t.Fatalf("pool lock leaked: %b", h.Lock)
	}
}

func TestLocalizedVerbCountsMatchTable2(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 0, 4, false)
	coord := f.cns[0].NewCoordinator(0)
	var att engine.Attempt
	var v rdma.Stats
	f.env.Spawn("c", func(p *sim.Proc) {
		txn := incTxn(0, 0, 1)
		txn.Blocks[0].Ops = append(txn.Blocks[0].Ops, engine.Op{
			Table: 1, Key: 1, ReadCells: []int{0},
			Hook: func(_ any, _ [][]byte) [][]byte { return nil },
		})
		v0 := f.sys.db.Fabric.Stats()
		att = coord.Execute(p, txn)
		v = f.sys.db.Fabric.Stats().Sub(v0)
	})
	run(t, f)
	if !att.Committed {
		t.Fatalf("abort: %v", att.Reason)
	}
	// Execution: masked-CAS (lock) + 2 READs (fetch both records).
	// Validation: 1 READ (header of the read-only record).
	// Commit: 1 log WRITE + cell WRITE + EN WRITE + masked-CAS unlock.
	if v.MaskedCASes != 2 {
		t.Errorf("masked-CASes = %d, want 2 (lock+unlock)", v.MaskedCASes)
	}
	if v.Reads != 3 {
		t.Errorf("READs = %d, want 3", v.Reads)
	}
	if v.Writes != 3 {
		t.Errorf("WRITEs = %d, want 3 (log + cell + epoch)", v.Writes)
	}
	if v.CASes != 0 {
		t.Errorf("plain CASes = %d, want 0", v.CASes)
	}
}

func TestCachedRecordSkipsFetch(t *testing.T) {
	// Two sequential transactions on one compute node: the second
	// writer reuses the cached record and the held lock only if it
	// overlaps in time; after full release the record is refetched.
	// Here we overlap them so the second sees the cache.
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 2, false)
	c1 := f.cns[0].NewCoordinator(0)
	c2 := f.cns[0].NewCoordinator(1)
	var v1, v2 engine.Attempt
	var verbs2 rdma.Stats
	f.env.Spawn("c1", func(p *sim.Proc) {
		txn := incTxn(0, 0, 1)
		txn.Blocks[0].Ops[0].Hook = func(_ any, read [][]byte) [][]byte {
			p.Sleep(30 * sim.Microsecond) // keep the object resident
			return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + 1)}
		}
		v1 = c1.Execute(p, txn)
	})
	f.env.Spawn("c2", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		v0 := f.sys.db.Fabric.Stats()
		v2 = c2.Execute(p, incTxn(0, 0, 1))
		verbs2 = f.sys.db.Fabric.Stats().Sub(v0)
	})
	run(t, f)
	if !v1.Committed || !v2.Committed {
		t.Fatalf("aborts: %v %v", v1.Reason, v2.Reason)
	}
	// c2 found the record cached and locked by its own CN: no READ of
	// the record, no masked-CAS to lock. It still validates nothing
	// (write cell covered) — its verbs are only commit-phase ones, and
	// if it was the last writer it did the flush.
	if verbs2.MaskedCASes > 1 {
		t.Errorf("second writer issued %d masked-CASes", verbs2.MaskedCASes)
	}
	if verbs2.Reads != 0 {
		t.Errorf("second writer issued %d READs despite cache hit", verbs2.Reads)
	}
	if got := f.poolCell(f.sys.db.Pool.PrimaryOf(1, 0), 0, 0); got != 2 {
		t.Fatalf("final value %d, want 2", got)
	}
}

func TestCellLevelAllowsDisjointWritesAcrossCNs(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 2, 0, 2, false)
	c1 := f.cns[0].NewCoordinator(0)
	c2 := f.cns[1].NewCoordinator(1)
	outcomes := make([]engine.Attempt, 2)
	f.env.Spawn("c1", func(p *sim.Proc) { outcomes[0] = c1.Execute(p, incTxn(0, 0, 1)) })
	f.env.Spawn("c2", func(p *sim.Proc) { outcomes[1] = c2.Execute(p, incTxn(0, 2, 1)) })
	run(t, f)
	if !outcomes[0].Committed || !outcomes[1].Committed {
		t.Fatalf("disjoint-cell writes conflicted: %v %v", outcomes[0].Reason, outcomes[1].Reason)
	}
	primary := f.sys.db.Pool.PrimaryOf(1, 0)
	if f.poolCell(primary, 0, 0) != 1 || f.poolCell(primary, 0, 2) != 1 {
		t.Fatal("lost update")
	}
}

func TestLocalWritersSameCellLastWriterWins(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 1, 2, true)
	const workers, incs = 6, 8
	for i := 0; i < workers; i++ {
		coord := f.cns[0].NewCoordinator(i)
		f.env.Spawn("w", func(p *sim.Proc) {
			for j := 0; j < incs; j++ {
				retryUntilCommit(p, coord, incTxn(0, 0, 1))
			}
		})
	}
	run(t, f)
	for _, n := range f.sys.db.Pool.ReplicaNodes(1, 0) {
		if got := f.poolCell(n, 0, 0); got != workers*incs {
			t.Fatalf("node %d counter = %d, want %d", n.ID, got, workers*incs)
		}
	}
	if err := f.sys.db.Obs.History.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
	if n := f.cns[0].CachedObjects(); n != 0 {
		t.Fatalf("%d objects leaked", n)
	}
}

func TestCrossCNIncrementsSerializable(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 3, 1, 4, true)
	const workers, incs = 9, 6
	for i := 0; i < workers; i++ {
		coord := f.cns[i%3].NewCoordinator(i)
		f.env.Spawn("w", func(p *sim.Proc) {
			for j := 0; j < incs; j++ {
				retryUntilCommit(p, coord, incTxn(layout.Key(j%2), j%3, 1))
			}
		})
	}
	run(t, f)
	if err := f.sys.db.Obs.History.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
	// Every cell of keys 0 and 1 should total the increments applied.
	primary0 := f.sys.db.Pool.PrimaryOf(1, 0)
	primary1 := f.sys.db.Pool.PrimaryOf(1, 1)
	total := uint64(0)
	for cell := 0; cell < 3; cell++ {
		total += f.poolCell(primary0, 0, cell) - 0
		total += f.poolCell(primary1, 1, cell) - 1
	}
	if total != workers*incs {
		t.Fatalf("total increments %d, want %d", total, workers*incs)
	}
}

func TestMixedReadersWritersSerializable(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 2, 0, 6, true)
	for i := 0; i < 4; i++ {
		coord := f.cns[i%2].NewCoordinator(i)
		f.env.Spawn("w", func(p *sim.Proc) {
			for j := 0; j < 12; j++ {
				retryUntilCommit(p, coord, incTxn(layout.Key(j%3), j%3, 1))
			}
		})
	}
	for i := 4; i < 8; i++ {
		coord := f.cns[i%2].NewCoordinator(i)
		f.env.Spawn("r", func(p *sim.Proc) {
			for j := 0; j < 12; j++ {
				var out []uint64
				coord.Execute(p, readTxn(layout.Key(j%3), []int{0, 1, 2}, &out))
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
	run(t, f)
	if err := f.sys.db.Obs.History.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
}

func TestPipelinedBlocksKeyDependency(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 0, 8, false)
	coord := f.cns[0].NewCoordinator(0)
	type st struct{ next uint64 }
	f.env.Spawn("c", func(p *sim.Proc) {
		s := &st{}
		txn := &engine.Txn{Label: "chain", State: s}
		txn.Blocks = []engine.Block{
			{Ops: []engine.Op{{
				Table: 1, Key: 3, ReadCells: []int{0},
				Hook: func(state any, read [][]byte) [][]byte {
					state.(*st).next = binary.LittleEndian.Uint64(read[0]) + 2
					return nil
				},
			}}},
			{Ops: []engine.Op{{
				Table:      1,
				KeyFn:      func(state any) layout.Key { return layout.Key(state.(*st).next) },
				ReadCells:  []int{1},
				WriteCells: []int{1},
				Hook: func(_ any, read [][]byte) [][]byte {
					return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + 1000)}
				},
			}}},
		}
		if a := coord.Execute(p, txn); !a.Committed {
			t.Errorf("abort: %v", a.Reason)
		}
	})
	run(t, f)
	// Key 3 cell 0 = 3 → dependent key 5 → cell 1 becomes 1005.
	if got := f.poolCell(f.sys.db.Pool.PrimaryOf(1, 5), 5, 1); got != 1005 {
		t.Fatalf("dependent write = %d, want 1005", got)
	}
}

func TestDependentCommitWaitsAndCascadingAbort(t *testing.T) {
	// T1 writes cell 0 slowly and then aborts (validation failure
	// injected by making its read-only record change). T2 reads T1's
	// uncommitted value and must abort with it.
	f := newFixture(t, DefaultOptions(), 1, 2, 0, 4, false)
	t1 := f.cns[0].NewCoordinator(0)
	t2 := f.cns[0].NewCoordinator(1)
	remote := f.cns[1].NewCoordinator(2)
	var a1, a2 engine.Attempt
	f.env.Spawn("t1", func(p *sim.Proc) {
		txn := &engine.Txn{Label: "t1"}
		txn.Blocks = []engine.Block{{Ops: []engine.Op{
			{
				Table: 1, Key: 0, ReadCells: []int{0}, WriteCells: []int{0},
				Hook: func(_ any, read [][]byte) [][]byte {
					return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + 1)}
				},
			},
			{
				// Read-only record 1: its epoch will change under us.
				Table: 1, Key: 1, ReadCells: []int{1},
				Hook: func(_ any, _ [][]byte) [][]byte {
					p.Sleep(60 * sim.Microsecond)
					return nil
				},
			},
		}}}
		a1 = t1.Execute(p, txn)
	})
	f.env.Spawn("t2", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond) // after T1 wrote its local version
		a2 = t2.Execute(p, incTxn(0, 0, 10))
	})
	f.env.Spawn("remote", func(p *sim.Proc) {
		p.Sleep(30 * sim.Microsecond) // invalidate T1's read-only set
		if a := remote.Execute(p, incTxn(1, 1, 5)); !a.Committed {
			t.Errorf("remote writer aborted: %v", a.Reason)
		}
	})
	run(t, f)
	if a1.Committed {
		t.Fatal("T1 should have failed validation")
	}
	if a1.Reason != engine.AbortValidation {
		t.Fatalf("T1 reason = %v, want validation", a1.Reason)
	}
	if a2.Committed {
		t.Fatal("T2 read T1's doomed value and still committed")
	}
	if a2.Reason != engine.AbortDependency {
		t.Fatalf("T2 reason = %v, want dependency", a2.Reason)
	}
	// Key 0 untouched by the cascade.
	if got := f.poolCell(f.sys.db.Pool.PrimaryOf(1, 0), 0, 0); got != 0 {
		t.Fatalf("cell 0 = %d after cascading abort, want 0", got)
	}
}

func TestCrossCNLockConflictAbortsAfterRetries(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 2, 0, 2, false)
	holder := f.cns[0].NewCoordinator(0)
	contender := f.cns[1].NewCoordinator(1)
	var ha, ca engine.Attempt
	f.env.Spawn("holder", func(p *sim.Proc) {
		txn := incTxn(0, 0, 1)
		txn.Blocks[0].Ops[0].Hook = func(_ any, read [][]byte) [][]byte {
			p.Sleep(400 * sim.Microsecond)
			return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + 1)}
		}
		ha = holder.Execute(p, txn)
	})
	f.env.Spawn("contender", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		ca = contender.Execute(p, incTxn(0, 0, 1))
	})
	run(t, f)
	if !ha.Committed {
		t.Fatalf("holder aborted: %v", ha.Reason)
	}
	if ca.Committed {
		t.Fatal("contender committed against a held cell lock")
	}
	if ca.Reason != engine.AbortLockFail {
		t.Fatalf("contender reason = %v", ca.Reason)
	}
	if ca.FalseConflict {
		t.Fatal("same-cell cross-CN conflict classified false")
	}
}

func TestValidationCatchesRemoteEpochChange(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 2, 0, 2, false)
	reader := f.cns[0].NewCoordinator(0)
	writer := f.cns[1].NewCoordinator(1)
	var ra engine.Attempt
	f.env.Spawn("reader", func(p *sim.Proc) {
		txn := &engine.Txn{Label: "slow-read", ReadOnly: true}
		txn.Blocks = []engine.Block{{Ops: []engine.Op{{
			Table: 1, Key: 0, ReadCells: []int{0},
			Hook: func(_ any, _ [][]byte) [][]byte {
				p.Sleep(60 * sim.Microsecond)
				return nil
			},
		}}}}
		ra = reader.Execute(p, txn)
	})
	f.env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(15 * sim.Microsecond)
		if a := writer.Execute(p, incTxn(0, 0, 9)); !a.Committed {
			t.Errorf("writer aborted: %v", a.Reason)
		}
	})
	run(t, f)
	if ra.Committed {
		t.Fatal("stale read committed")
	}
	if ra.Reason != engine.AbortValidation {
		t.Fatalf("reason = %v, want validation", ra.Reason)
	}
}

func TestReverseOrderDetected(t *testing.T) {
	// T1 (earlier TS_exec) pauses between blocks; T2 (later TS_exec)
	// writes the record T1 will read in its second block. T1 must
	// abort with a reverse-order violation.
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 4, false)
	t1 := f.cns[0].NewCoordinator(0)
	t2 := f.cns[0].NewCoordinator(1)
	anchor := f.cns[0].NewCoordinator(2)
	var a1 engine.Attempt
	// The anchor keeps record 1 write-referenced so T2's version is
	// still in the record cache when T1 reads it.
	f.env.Spawn("anchor", func(p *sim.Proc) {
		txn := incTxn(1, 2, 0)
		txn.Blocks[0].Ops[0].Hook = func(_ any, read [][]byte) [][]byte {
			p.Sleep(200 * sim.Microsecond)
			return [][]byte{read[0]}
		}
		anchor.Execute(p, txn)
	})
	f.env.Spawn("t1", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		txn := &engine.Txn{Label: "t1"}
		txn.Blocks = []engine.Block{
			{Ops: []engine.Op{{
				Table: 1, Key: 0, ReadCells: []int{0}, WriteCells: []int{0},
				Hook: func(_ any, read [][]byte) [][]byte {
					p.Sleep(80 * sim.Microsecond) // stall before block 2
					return [][]byte{read[0]}
				},
			}}},
			{Ops: []engine.Op{{
				Table: 1, Key: 1, ReadCells: []int{0},
				Hook: func(_ any, _ [][]byte) [][]byte { return nil },
			}}},
		}
		a1 = t1.Execute(p, txn)
	})
	f.env.Spawn("t2", func(p *sim.Proc) {
		p.Sleep(30 * sim.Microsecond) // after T1 got its TS_exec
		if a := t2.Execute(p, incTxn(1, 0, 7)); !a.Committed {
			t.Errorf("t2 aborted: %v", a.Reason)
		}
	})
	run(t, f)
	if a1.Committed {
		t.Fatal("T1 committed through a reverse ordering")
	}
	if a1.Reason != engine.AbortReverse {
		t.Fatalf("T1 reason = %v, want reverse-order", a1.Reason)
	}
}

func TestENThresholdFallback(t *testing.T) {
	// Force the fallback by setting a tiny threshold: validation must
	// still work (and use full-record reads).
	opts := DefaultOptions()
	opts.ENThreshold = 1 * sim.Microsecond
	f := newFixture(t, opts, 1, 1, 0, 4, false)
	coord := f.cns[0].NewCoordinator(0)
	var att engine.Attempt
	var v rdma.Stats
	f.env.Spawn("c", func(p *sim.Proc) {
		txn := incTxn(0, 0, 1)
		txn.Blocks[0].Ops = append(txn.Blocks[0].Ops, engine.Op{
			Table: 1, Key: 1, ReadCells: []int{0},
			Hook: func(_ any, _ [][]byte) [][]byte { return nil },
		})
		v0 := f.sys.db.Fabric.Stats()
		att = coord.Execute(p, txn)
		v = f.sys.db.Fabric.Stats().Sub(v0)
	})
	run(t, f)
	if !att.Committed {
		t.Fatalf("fallback validation aborted: %v", att.Reason)
	}
	// The fallback validation read fetches the whole record (320
	// bytes for 3 cells + header), visible in BytesRead.
	lay := f.sys.layouts[1]
	if v.BytesRead < uint64(2*lay.Size()) {
		t.Fatalf("read %d bytes; full-record fallback expected ≥ %d",
			v.BytesRead, 2*lay.Size())
	}

	// And a stale read still aborts under the fallback.
	f2 := newFixture(t, opts, 1, 2, 0, 2, false)
	reader := f2.cns[0].NewCoordinator(0)
	writer := f2.cns[1].NewCoordinator(1)
	var ra engine.Attempt
	f2.env.Spawn("reader", func(p *sim.Proc) {
		txn := &engine.Txn{Label: "r", ReadOnly: true}
		txn.Blocks = []engine.Block{{Ops: []engine.Op{{
			Table: 1, Key: 0, ReadCells: []int{0},
			Hook: func(_ any, _ [][]byte) [][]byte {
				p.Sleep(50 * sim.Microsecond)
				return nil
			},
		}}}}
		ra = reader.Execute(p, txn)
	})
	f2.env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		writer.Execute(p, incTxn(0, 0, 1))
	})
	run(t, f2)
	if ra.Committed {
		t.Fatal("fallback validation missed a stale read")
	}
}

func TestLogEntryRoundTrip(t *testing.T) {
	recs := []logRecord{
		{Table: 1, Key: 42, Mask: 0b101, Vals: [][]byte{word(7), word(9)}},
		{Table: 3, Key: 0, Mask: 0b1, Vals: [][]byte{[]byte("abc")}},
	}
	entry := encodeLogEntry(77, 12345, []uint64{5, 6}, recs)
	txnID, ts, deps, got, n, err := decodeLogEntry(entry)
	if err != nil {
		t.Fatal(err)
	}
	if txnID != 77 || ts != 12345 || n != len(entry) {
		t.Fatalf("txnID=%d ts=%d n=%d", txnID, ts, n)
	}
	if len(deps) != 2 || deps[0] != 5 || deps[1] != 6 {
		t.Fatalf("deps = %v", deps)
	}
	if len(got) != 2 || got[0].Mask != 0b101 || string(got[1].Vals[0]) != "abc" {
		t.Fatalf("recs = %+v", got)
	}
	// Truncations must error, not panic.
	for i := 0; i < len(entry); i++ {
		if _, _, _, _, _, err := decodeLogEntry(entry[:i]); err == nil && i < len(entry) {
			// A shorter prefix may still decode if the length word is
			// intact and the content happens to fit — only lengths
			// below the declared total must fail.
			if i < n {
				t.Fatalf("truncated entry (%d bytes) decoded", i)
			}
		}
	}
}

func TestHighContentionStress(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 3, 1, 3, true)
	const workers = 12
	for i := 0; i < workers; i++ {
		coord := f.cns[i%3].NewCoordinator(i)
		seedK := i
		f.env.Spawn("w", func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				key := layout.Key((seedK + j) % 3)
				cell := (seedK * j) % 3
				if j%4 == 3 {
					var out []uint64
					coord.Execute(p, readTxn(key, []int{0, 1, 2}, &out))
				} else {
					retryUntilCommit(p, coord, incTxn(key, cell, 1))
				}
			}
		})
	}
	run(t, f)
	if err := f.sys.db.Obs.History.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
	for _, cn := range f.cns {
		if n := cn.CachedObjects(); n != 0 {
			t.Fatalf("record cache leaked %d objects", n)
		}
	}
	for k := layout.Key(0); k < 3; k++ {
		for _, n := range f.sys.db.Pool.ReplicaNodes(1, k) {
			if h := f.poolHeader(n, k); h.Lock != 0 {
				t.Fatalf("lock leaked on node %d key %d: %b", n.ID, k, h.Lock)
			}
		}
	}
}
