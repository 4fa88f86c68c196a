package core

import (
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
)

func TestRecoverCleanRunIsIdempotent(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 1, 2, false)
	coord := f.cns[0].NewCoordinator(0)
	f.env.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			retryUntilCommit(p, coord, incTxn(0, 0, 1))
		}
	})
	run(t, f)
	rep, err := f.sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 5 || rep.Committed != 5 {
		t.Fatalf("report %+v, want 5 entries all committed", rep)
	}
	if rep.CellsRepaired != 0 {
		t.Fatalf("clean run repaired %d cells", rep.CellsRepaired)
	}
	if rep.LocksCleared != 0 {
		t.Fatalf("clean run cleared %d locks", rep.LocksCleared)
	}
	if got := f.poolCell(f.sys.db.Pool.PrimaryOf(1, 0), 0, 0); got != 5 {
		t.Fatalf("counter = %d", got)
	}
}

func TestRecoverRollsForwardUnflushedCommit(t *testing.T) {
	// Crash the run at a point where some transactions have logged
	// (committed) but their write-back has not landed. Recovery must
	// roll them forward.
	f := newFixture(t, DefaultOptions(), 2, 2, 1, 2, false)
	for i := 0; i < 8; i++ {
		coord := f.cns[i%2].NewCoordinator(i)
		f.env.Spawn("w", func(p *sim.Proc) {
			for j := 0; j < 20; j++ {
				retryUntilCommit(p, coord, incTxn(0, 0, 1))
			}
		})
	}
	// Stop mid-flight: a crash of all compute nodes.
	if err := f.env.RunUntil(sim.Time(300 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	rep, err := f.sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries == 0 {
		t.Fatal("no log entries found mid-run")
	}
	// After recovery: every replica holds the newest committed value,
	// no locks remain, and a second pass is a no-op.
	var want uint64
	for _, n := range f.sys.db.Pool.ReplicaNodes(1, 0) {
		got := f.poolCell(n, 0, 0)
		if want == 0 {
			want = got
		}
		if got != want {
			t.Fatalf("replicas diverge after recovery: %d vs %d", got, want)
		}
		if h := f.poolHeader(n, 0); h.Lock != 0 {
			t.Fatalf("lock bits survive recovery: %b", h.Lock)
		}
	}
	if want != uint64(rep.Committed) {
		// Each committed increment adds one; the newest committed
		// value equals the number of committed increments.
		t.Fatalf("counter = %d after recovery, committed = %d", want, rep.Committed)
	}
	rep2, err := f.sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CellsRepaired != 0 || rep2.LocksCleared != 0 {
		t.Fatalf("second recovery not a no-op: %+v", rep2)
	}
}

func TestRecoverDropsOrphanedDependents(t *testing.T) {
	// Hand-craft a log: txn 2 depends on txn 1, whose entry is
	// missing. Recovery must not apply txn 2.
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 2, false)
	coord := f.cns[0].NewCoordinator(0)
	entry := encodeLogEntry(2, 50, []uint64{1}, []logRecord{
		{Table: 1, Key: 0, Mask: 1, Vals: [][]byte{word(999)}},
	})
	off := coord.Log.Reserve(len(entry))
	buf := f.sys.db.Pool.Nodes()[0].Region.Bytes()
	copy(buf[off:], entry)
	rep, err := f.sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphaned != 1 || rep.Committed != 0 {
		t.Fatalf("report %+v, want 1 orphan", rep)
	}
	if got := f.poolCell(f.sys.db.Pool.Nodes()[0], 0, 0); got == 999 {
		t.Fatal("orphaned transaction applied")
	}
}

func TestRecoverAppliesDependencyChain(t *testing.T) {
	// txn 1 (ts 10) writes 7; txn 2 (ts 20, depends on 1) writes 8.
	// Both logged → both applied, in timestamp order.
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 2, false)
	coord := f.cns[0].NewCoordinator(0)
	e1 := encodeLogEntry(1, 10, nil, []logRecord{{Table: 1, Key: 0, Mask: 0b10, Vals: [][]byte{word(7)}}})
	e2 := encodeLogEntry(2, 20, []uint64{1}, []logRecord{{Table: 1, Key: 0, Mask: 0b10, Vals: [][]byte{word(8)}}})
	buf := f.sys.db.Pool.Nodes()[0].Region.Bytes()
	off1 := coord.Log.Reserve(len(e1))
	copy(buf[off1:], e1)
	off2 := coord.Log.Reserve(len(e2))
	copy(buf[off2:], e2)
	rep, err := f.sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != 2 {
		t.Fatalf("committed = %d, want 2", rep.Committed)
	}
	if got := f.poolCell(f.sys.db.Pool.Nodes()[0], 0, 1); got != 8 {
		t.Fatalf("cell = %d, want 8 (ts order)", got)
	}
	// The header epoch advanced twice (two applied versions).
	if h := f.poolHeader(f.sys.db.Pool.Nodes()[0], 0); h.EN[1] != 2 {
		t.Fatalf("EN = %d, want 2", h.EN[1])
	}
}

func TestRecoverSurvivesOneLogReplicaFailure(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 1, 2, false)
	coord := f.cns[0].NewCoordinator(0)
	f.env.Spawn("c", func(p *sim.Proc) {
		retryUntilCommit(p, coord, incTxn(0, 0, 1))
	})
	run(t, f)
	// Fail the first log replica; the backup still has the entry.
	coord.LogN[0].Region.Fail()
	defer coord.LogN[0].Region.Recover()
	rep, err := f.sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || rep.Committed != 1 {
		t.Fatalf("report %+v", rep)
	}
}

func TestRecoverAllLogReplicasDownErrors(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 2, false)
	coord := f.cns[0].NewCoordinator(0)
	_ = coord
	f.sys.db.Pool.Nodes()[0].Region.Fail()
	defer f.sys.db.Pool.Nodes()[0].Region.Recover()
	if _, err := f.sys.Recover(); err == nil {
		t.Fatal("recovery succeeded with every log replica down")
	}
}

func TestRecoverClearsStaleLocks(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 2, false)
	// Leave a stale lock bit as a crashed coordinator would.
	tab := f.sys.db.Table(1)
	off, _ := tab.AddrOf(1)
	buf := f.sys.db.Pool.Nodes()[0].Region.Bytes()
	layout.PutWord(buf, int(off)+layout.OffLock, 0b101)
	rep, err := f.sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocksCleared != 1 {
		t.Fatalf("LocksCleared = %d", rep.LocksCleared)
	}
	if got := layout.ReadWord(buf, int(off)+layout.OffLock); got != 0 {
		t.Fatalf("lock word = %b", got)
	}
}

func TestRecoverPreservesDeleteBit(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 1, 1, 0, 2, false)
	tab := f.sys.db.Table(1)
	off, _ := tab.AddrOf(1)
	buf := f.sys.db.Pool.Nodes()[0].Region.Bytes()
	layout.PutWord(buf, int(off)+layout.OffLock, layout.DeleteMask|0b1)
	if _, err := f.sys.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := layout.ReadWord(buf, int(off)+layout.OffLock); got != layout.DeleteMask {
		t.Fatalf("lock word = %x, want delete bit preserved", got)
	}
}

func TestRecoverCrashStress(t *testing.T) {
	// Crash at several points in a contended run; recovery must always
	// produce replica-consistent state with the counter equal to the
	// committed count.
	for _, crashAt := range []sim.Duration{80, 150, 400, 900} {
		f := newFixture(t, DefaultOptions(), 2, 2, 1, 2, false)
		for i := 0; i < 6; i++ {
			coord := f.cns[i%2].NewCoordinator(i)
			f.env.Spawn("w", func(p *sim.Proc) {
				for j := 0; j < 30; j++ {
					retryUntilCommit(p, coord, incTxn(0, 0, 1))
				}
			})
		}
		if err := f.env.RunUntil(sim.Time(crashAt * sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
		rep, err := f.sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		var vals []uint64
		for _, n := range f.sys.db.Pool.ReplicaNodes(1, 0) {
			vals = append(vals, f.poolCell(n, 0, 0))
		}
		for _, v := range vals {
			if v != vals[0] {
				t.Fatalf("crash@%dµs: replicas diverge %v", crashAt, vals)
			}
		}
		if vals[0] != uint64(rep.Committed) {
			t.Fatalf("crash@%dµs: counter %d vs committed %d", crashAt, vals[0], rep.Committed)
		}
	}
}
