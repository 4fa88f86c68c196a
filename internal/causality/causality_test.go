package causality

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/trace"
)

// inProc runs fn inside one simulated process and drives the
// environment to completion.
func inProc(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv(1)
	env.Spawn("test", fn)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// begin opens the node of a transaction with the given identity at
// time 0, as the engine does on its first attempt.
func begin(r *Recorder, id, coord uint64, label string) *Txn {
	return r.Begin(0, &trace.Span{ID: id, Coord: coord, Label: label, Attempt: 1})
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	inProc(t, func(p *sim.Proc) {
		tx := begin(r, 1, 1, "txn")
		if tx != nil {
			t.Errorf("nil recorder returned txn %v", tx)
		}
		if got := tx.WhyID(); got != 0 {
			t.Errorf("WhyID of no node = %d, want 0", got)
		}
		r.Retry(tx)
		r.LockFail(p.Now(), tx, 1, 2, 0b11, 7)
		r.ValidationFail(p.Now(), tx, 1, 2, 0b1, 7)
		r.DependencyWait(p.Now(), tx, 7, sim.Microsecond)
		r.LocalWait(p.Now(), tx, 1, 2, 7, sim.Microsecond)
		r.Abort(p.Now(), tx, "lock-conflict")
		r.Commit(p.Now(), tx)
	})
	snap := r.Snapshot()
	if len(snap.Edges) != 0 || len(snap.Txns) != 0 || snap.Hotspots != nil || snap.Dropped != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
}

// A retry keeps the node and moves its attempt on; the abort before it
// froze its cause.
func TestRetryReusesNodeAndFreezesCause(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		// A holder transaction holds cells 0b01 of (1, 42).
		h := begin(r, 1, 9, "holder")

		t1 := begin(r, 2, 7, "transfer")
		if t1.Attempt != 1 {
			t.Fatalf("first attempt = %d, want 1", t1.Attempt)
		}
		r.LockFail(p.Now(), t1, 1, 42, 0b01, h.ID)
		r.Abort(p.Now(), t1, "lock-conflict")
		if t1.CauseSeq == 0 || t1.CauseKind != KindLockFail || t1.Holder != h.ID {
			t.Fatalf("cause not frozen to the lock-fail edge: %+v", t1)
		}
		if t1.CauseTable != 1 || t1.CauseKey != 42 || t1.CauseMask != 0b01 {
			t.Fatalf("cause site wrong: %+v", t1)
		}

		r.Retry(t1)
		if t1.Attempt != 2 {
			t.Fatalf("retry attempt = %d, want 2", t1.Attempt)
		}
		r.Commit(p.Now(), t1)
		if t1.State != StateCommitted || t1.Aborts != 1 {
			t.Fatalf("commit after abort: state=%v aborts=%d", t1.State, t1.Aborts)
		}
	})
	if n := len(r.Snapshot().Txns); n != 2 {
		t.Fatalf("%d nodes, want 2: a retry is no new node", n)
	}
	snap := r.Snapshot()
	tr := snap.Txn(2) // the transfer node (holder was id 1)
	if tr == nil || tr.Cause == nil {
		t.Fatalf("snapshot lost the cause: %+v", tr)
	}
	if tr.Cause.Kind != KindLockFail || tr.Cause.Holder != 1 {
		t.Fatalf("snapshot cause = %+v, want lock-fail against txn 1", tr.Cause)
	}
}

// TestAbortWithoutEdgeClearsCause: an abort whose attempt recorded no
// conflict edge (e.g. a reverse-order abort) must not inherit the
// previous attempt's cause.
func TestAbortWithoutEdgeClearsCause(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		tx := begin(r, 1, 1, "t")
		r.LockFail(p.Now(), tx, 1, 5, 0b1, 0)
		r.Abort(p.Now(), tx, "lock-conflict")
		if tx.CauseSeq == 0 {
			t.Fatal("first abort did not freeze a cause")
		}
		r.Retry(tx) // attempt 2: no edges recorded
		r.Abort(p.Now(), tx, "reverse-order")
		if tx.CauseSeq != 0 {
			t.Fatalf("stale cause survived an edge-free abort: %+v", tx)
		}
	})
}

func TestEdgeRingEvictsOldest(t *testing.T) {
	r := NewRecorder(Options{Capacity: 4})
	inProc(t, func(p *sim.Proc) {
		tx := begin(r, 1, 1, "t")
		for i := 0; i < 10; i++ {
			r.LockFail(p.Now(), tx, 1, layout.Key(i), 1, 0)
		}
	})
	snap := r.Snapshot()
	if len(snap.Edges) != 4 || snap.Dropped != 6 {
		t.Fatalf("snapshot holds %d edges, dropped %d; want 4 and 6", len(snap.Edges), snap.Dropped)
	}
	for i, e := range snap.Edges {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("edge %d has seq %d, want %d (oldest-to-newest)", i, e.Seq, want)
		}
		if want := layout.Key(6 + i); e.Key != want {
			t.Fatalf("edge %d key %d, want %d", i, e.Key, want)
		}
	}
}

// chainSnapshot is the hand-built scenario the report tests share:
// T412 aborted at validation on (3, 17, cell 2), updated by T398,
// which waited 14µs on T371.
func chainSnapshot() *Snapshot {
	return &Snapshot{
		Txns: []TxnInfo{
			{ID: 371, Label: "Audit", State: StateCommitted, End: 80},
			{ID: 398, Label: "Deposit", State: StateCommitted, End: 90},
			{ID: 412, Label: "Pay", State: StateAborted, Reason: "validation",
				Attempt: 1, Aborts: 1, End: 100,
				Cause: &CauseInfo{Seq: 2, Kind: KindValidation, Table: 3, Key: 17, Mask: 1 << 2, Holder: 398}},
		},
		Edges: []Edge{
			{Seq: 1, At: 40, Kind: KindLocalWait, Waiter: 398, Holder: 371,
				Table: 3, Key: 17, Wait: 14 * sim.Microsecond},
			{Seq: 2, At: 95, Kind: KindValidation, Waiter: 412, Holder: 398,
				Table: 3, Key: 17, Mask: 1 << 2},
		},
		Labels: []GraphNode{{Label: "Audit", Txns: 1, Commits: 1}, {Label: "Deposit", Txns: 1, Commits: 1},
			{Label: "Pay", Txns: 1, Aborts: 1}},
		LabelEdges: []GraphEdge{
			{From: "Deposit", To: "Audit", Kind: KindLocalWait, Count: 1, TotalWait: 14 * sim.Microsecond},
			{From: "Pay", To: "Deposit", Kind: KindValidation, Count: 1},
		},
		Hotspots: []Hotspot{
			{Table: 3, Key: 17, Cell: 2, Count: 1, Aborts: 1},
			{Table: 3, Key: 17, Cell: -1, Count: 1, TotalWait: 14 * sim.Microsecond},
		},
	}
}

func TestBlameChainFollowsCauseThenDominantWait(t *testing.T) {
	s := chainSnapshot()
	hops := s.BlameChain(412, 0)
	if len(hops) != 2 {
		t.Fatalf("chain length = %d, want 2: %+v", len(hops), hops)
	}
	if hops[0].Txn != 412 || hops[0].Holder != 398 || hops[0].Kind != KindValidation {
		t.Fatalf("hop 0 = %+v", hops[0])
	}
	if hops[1].Txn != 398 || hops[1].Holder != 371 || hops[1].Kind != KindLocalWait {
		t.Fatalf("hop 1 = %+v", hops[1])
	}
	if hops[1].Wait != 14*sim.Microsecond {
		t.Fatalf("hop 1 wait = %v, want 14µs", hops[1].Wait)
	}

	var buf bytes.Buffer
	if err := WriteBlame(&buf, s, 412); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"T412 [Pay] aborted",
		"failed validation on (table 3, key 17, cell {2}); updated by T398 [Deposit]",
		"T398 [Deposit] waited 14.000µs on (table 3, key 17, record) held by T371 [Audit]",
		"T371 [Audit] committed at 80",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("blame output missing %q:\n%s", want, out)
		}
	}

	if err := WriteBlame(&buf, s, 999); err == nil {
		t.Fatal("unknown txn did not error")
	}
}

func TestBlameChainStopsOnCycle(t *testing.T) {
	s := &Snapshot{
		Txns: []TxnInfo{
			{ID: 1, Label: "a", State: StateAborted, Reason: "lock-conflict", Attempt: 1, Aborts: 1,
				Cause: &CauseInfo{Seq: 1, Kind: KindLockFail, Table: 1, Key: 1, Mask: 1, Holder: 2}},
			{ID: 2, Label: "b", State: StateCommitted},
		},
		Edges: []Edge{
			{Seq: 1, Kind: KindLockFail, Waiter: 1, Holder: 2, Table: 1, Key: 1, Mask: 1},
			{Seq: 2, Kind: KindLockFail, Waiter: 2, Holder: 1, Table: 1, Key: 1, Mask: 1},
		},
	}
	hops := s.BlameChain(1, 0)
	if len(hops) != 2 {
		t.Fatalf("cyclic chain length = %d, want 2 (stop on revisit): %+v", len(hops), hops)
	}
	if hops[1].Holder != 1 {
		t.Fatalf("hop 1 = %+v", hops[1])
	}
}

func TestGraphAggregatesAndFindsCycles(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		a1, b, a3 := begin(r, 1, 1, "A"), begin(r, 2, 2, "B"), begin(r, 3, 3, "A")
		r.LockFail(p.Now(), a1, 1, 5, 0b1, b.ID)
		r.LockFail(p.Now(), a1, 1, 5, 0b1, b.ID)
		r.Abort(p.Now(), a1, "lock-conflict")
		r.Retry(a1)
		r.Commit(p.Now(), a1)
		r.LocalWait(p.Now(), b, 1, 5, a1.ID, sim.Microsecond)
		r.Commit(p.Now(), b)
		r.ValidationFail(p.Now(), a3, 1, 5, 0b10, 0)
		r.Abort(p.Now(), a3, "validation")
		r.Retry(a3)
		r.Abort(p.Now(), a3, "lock-conflict")
	})
	g := r.Snapshot().Graph()

	if len(g.Nodes) != 2 || g.Nodes[0].Label != "A" || g.Nodes[1].Label != "B" {
		t.Fatalf("nodes = %+v", g.Nodes)
	}
	if g.Nodes[0].Txns != 2 || g.Nodes[0].Aborts != 3 || g.Nodes[0].Commits != 1 {
		t.Fatalf("label A aggregate = %+v", g.Nodes[0])
	}

	var ab *GraphEdge
	for i := range g.Edges {
		if g.Edges[i].From == "A" && g.Edges[i].To == "B" && g.Edges[i].Kind == KindLockFail {
			ab = &g.Edges[i]
		}
	}
	if ab == nil || ab.Count != 2 {
		t.Fatalf("A->B lock-fail edge = %+v (edges %+v)", ab, g.Edges)
	}

	// The unattributed validation lands on "?" and must not join cycles.
	foundUnattr := false
	for _, e := range g.Edges {
		if e.To == unattributedLabel && e.Kind == KindValidation {
			foundUnattr = true
		}
	}
	if !foundUnattr {
		t.Fatalf("missing unattributed edge: %+v", g.Edges)
	}

	if len(g.Cycles) != 1 || len(g.Cycles[0]) != 2 || g.Cycles[0][0] != "A" || g.Cycles[0][1] != "B" {
		t.Fatalf("cycles = %+v, want [[A B]]", g.Cycles)
	}
}

// TestHotspotsCountedAsRecorded: each edge that names a record counts
// against its cells (the record level for mask 0) as it is recorded,
// and each abort moves the transaction's one abort count from its
// previous cause's cells to its new cause's — to none when the attempt
// recorded no edge or only a dependency wait.
func TestHotspotsCountedAsRecorded(t *testing.T) {
	r := NewRecorder(Options{})
	var steps [][]Hotspot
	inProc(t, func(p *sim.Proc) {
		step := func() { steps = append(steps, r.Snapshot().Hotspots) }
		tx := begin(r, 1, 1, "t")
		r.LocalWait(p.Now(), tx, 1, 5, 0, sim.Microsecond)
		r.LockFail(p.Now(), tx, 1, 5, 0b1, 0)
		r.LockFail(p.Now(), tx, 1, 5, 0b1, 0)
		r.Abort(p.Now(), tx, "lock-conflict")
		step()
		r.Retry(tx)
		r.ValidationFail(p.Now(), tx, 1, 5, 0b110, 0)
		r.Abort(p.Now(), tx, "validation")
		step()
		r.Retry(tx)
		r.DependencyWait(p.Now(), tx, 2, sim.Microsecond)
		r.Abort(p.Now(), tx, "dependency")
		step()
		r.Retry(tx)
		r.LockFail(p.Now(), tx, 1, 5, 0b1, 0)
		r.Abort(p.Now(), tx, "lock-conflict")
		r.Retry(tx)
		r.Abort(p.Now(), tx, "reverse-order")
		step()
	})
	us := sim.Microsecond
	want := [][]Hotspot{
		{{Table: 1, Key: 5, Cell: 0, Count: 2, Aborts: 1}, {Table: 1, Key: 5, Cell: -1, Count: 1, TotalWait: us}},
		{{Table: 1, Key: 5, Cell: 0, Count: 2}, {Table: 1, Key: 5, Cell: 1, Count: 1, Aborts: 1},
			{Table: 1, Key: 5, Cell: 2, Count: 1, Aborts: 1}, {Table: 1, Key: 5, Cell: -1, Count: 1, TotalWait: us}},
		{{Table: 1, Key: 5, Cell: 0, Count: 2}, {Table: 1, Key: 5, Cell: -1, Count: 1, TotalWait: us},
			{Table: 1, Key: 5, Cell: 1, Count: 1}, {Table: 1, Key: 5, Cell: 2, Count: 1}},
		{{Table: 1, Key: 5, Cell: 0, Count: 3}, {Table: 1, Key: 5, Cell: -1, Count: 1, TotalWait: us},
			{Table: 1, Key: 5, Cell: 1, Count: 1}, {Table: 1, Key: 5, Cell: 2, Count: 1}},
	}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("rankings after each abort:\n got %+v\nwant %+v", steps, want)
	}
}

// TestDependencyCauseRanksNoHotspot: a dependency wait names no record,
// so an abort it caused ranks none — not the zero record (table 0,
// key 0), which no workload has.
func TestDependencyCauseRanksNoHotspot(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		tx := begin(r, 2, 1, "t")
		r.DependencyWait(p.Now(), tx, 1, sim.Microsecond)
		r.Abort(p.Now(), tx, "dependency")
	})
	s := r.Snapshot()
	if c := s.Txn(2).Cause; c == nil || c.Kind != KindDependency {
		t.Fatalf("cause = %+v, want the dependency edge", c)
	}
	if hs := s.Graph().Hotspots; len(hs) != 0 {
		t.Fatalf("hotspots = %+v, want none", hs)
	}
}

// tinySnapshot is a holder and a loser that fails a lock, fails
// validation and then commits.
func tinySnapshot(t testing.TB) *Snapshot {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		h := begin(r, 1, 1, "holder")
		tx := begin(r, 2, 2, "loser")
		r.LockFail(p.Now(), tx, 1, 5, 0b1, h.ID)
		r.Abort(p.Now(), tx, "lock-conflict")
		r.ValidationFail(p.Now(), tx, 1, 5, 0b1, h.ID)
		r.Abort(p.Now(), tx, "validation")
		r.Commit(p.Now(), tx)
		r.Commit(p.Now(), h)
	})
	return r.Snapshot()
}

// TestJSONRoundTripsByteEqual: ReadJSON then WriteJSON gives the same
// bytes, also for a snapshot whose ring dropped edges, whose graph its
// edges can no longer rebuild.
func TestJSONRoundTripsByteEqual(t *testing.T) {
	dropped := recorded(1, 1, 64)
	if dropped.Dropped == 0 || reflect.DeepEqual(graphRef(dropped).Edges, dropped.Graph().Edges) ||
		reflect.DeepEqual(graphRef(dropped).Hotspots, dropped.Hotspots) {
		t.Fatalf("the ring kept enough edges (%d dropped) to rebuild the graph", dropped.Dropped)
	}
	for name, snap := range map[string]*Snapshot{"tiny": tinySnapshot(t), "dropped": dropped} {
		var first bytes.Buffer
		if err := WriteJSON(&first, snap); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := WriteJSON(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: JSON round trip not byte-equal:\n--- first\n%s\n--- second\n%s", name, first.String(), second.String())
		}
	}

	if _, err := ReadJSON(strings.NewReader(`{"schema":"crest-why/v0","txns":[],"edges":[]}`)); err == nil {
		t.Fatal("wrong schema version accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDOTOutputIsStructurallyValid(t *testing.T) {
	s := chainSnapshot()
	var buf bytes.Buffer
	if err := WriteDOT(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph crest_why {\n") {
		t.Fatalf("missing digraph header:\n%s", out)
	}
	if !strings.HasSuffix(out, "}\n") {
		t.Fatalf("missing closing brace:\n%s", out)
	}
	if n := strings.Count(out, "{") - strings.Count(out, "}"); n != 0 {
		t.Fatalf("unbalanced braces (%+d):\n%s", n, out)
	}
	if strings.Count(out, `"`)%2 != 0 {
		t.Fatalf("unbalanced quotes:\n%s", out)
	}
	for _, want := range []string{
		`"Pay" [label="Pay\n1 txns, 1 aborted attempts"];`,
		`"Pay" -> "Deposit" [label="validation ×1", color=darkorange];`,
		`"Deposit" -> "Audit" [label="local-wait ×1, 14.000µs", color=gray40];`,
		`"?" [label="unattributed", style=dashed];`,
		"// hotspot 1:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	// Every edge statement stays inside the graph block and names
	// quoted endpoints.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "->") && !strings.Contains(line, "//") {
			if !strings.HasPrefix(strings.TrimSpace(line), `"`) || !strings.HasSuffix(line, ";") {
				t.Fatalf("malformed edge line %q", line)
			}
		}
	}
}

// TestEdgePathAllocatesNothingSteadyState is the hot-path guarantee:
// once the rings are warm and the cells ranked, recording an edge or
// an abort (or running with the recorder disabled) allocates nothing;
// nor does the first edge between two labels the graph knows, whether
// the stride or a binary search finds its holder in the ring.
func TestEdgePathAllocatesNothingSteadyState(t *testing.T) {
	r := NewRecorder(Options{Capacity: 64})
	inProc(t, func(p *sim.Proc) {
		tx := begin(r, 1, 1, "warm")
		h := begin(r, 3, 2, "holder") // id 2 never began: the stride misses 3
		firsts := []*Txn{begin(r, 4, 3, "first0"), begin(r, 5, 4, "first1")}
		// Warm-up: fill the edge ring so emit overwrites in place, and
		// rank the cell and the record the loop counts against.
		r.LocalWait(p.Now(), tx, 1, 7, h.ID, sim.Microsecond)
		for i := 0; i < 80; i++ {
			r.LockFail(p.Now(), tx, 1, 7, 0b1, h.ID)
		}
		allocs := testing.AllocsPerRun(200, func() {
			r.LockFail(p.Now(), tx, 1, 7, 0b1, h.ID)
			r.ValidationFail(p.Now(), tx, 1, 7, 0b1, 0)
			r.Abort(p.Now(), tx, "validation")
			r.Retry(tx)
			r.LocalWait(p.Now(), tx, 1, 7, h.ID, sim.Microsecond)
			r.DependencyWait(p.Now(), tx, h.ID, sim.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("live recorder steady state allocates %.1f/op, want 0", allocs)
		}
		// AllocsPerRun calls twice: each call is the first edge to
		// its holder's label.
		next := 0
		allocs = testing.AllocsPerRun(1, func() {
			r.LockFail(p.Now(), tx, 1, 7, 0b1, firsts[next].ID)
			next++
		})
		if g := r.Snapshot().Graph(); allocs != 0 || len(g.Edges) != 6 {
			t.Errorf("a first edge between two labels allocates %.1f/op, want 0 (graph edges %+v)", allocs, g.Edges)
		}

		var nilRec *Recorder
		allocs = testing.AllocsPerRun(200, func() {
			nilRec.LockFail(p.Now(), tx, 1, 7, 0b1, 3)
			nilRec.ValidationFail(p.Now(), tx, 1, 7, 0b1, 3)
			nilRec.LocalWait(p.Now(), tx, 1, 7, 3, sim.Microsecond)
			nilRec.DependencyWait(p.Now(), tx, 3, sim.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("nil recorder allocates %.1f/op, want 0", allocs)
		}
	})
}
