package rdma

import (
	"bytes"
	"strings"
	"testing"

	"crest/internal/sim"
)

// postTarget names one batch of a contract-test post: which of the four
// test regions it targets (a0, b0 live in the issuer's partition 0; a1,
// b1 in partition 1).
type postTarget int

const (
	a0 postTarget = iota
	b0
	a1
	b1
)

// postRig is a 2-partition world with two regions per partition, each
// filled with its own byte pattern, and an issuer in partition 0.
type postRig struct {
	w       *sim.World
	f       *Fabric
	regions [4]*Region
	qps     [4]*QP
	shadow  *sim.Env // same seed as partition 0: replays its latency draws
}

func newPostRig(seed int64) *postRig {
	params := DefaultParams() // jitter on: the latency draws are part of the contract
	w := sim.NewWorld(seed, 2, params.Lookahead())
	g := &postRig{w: w, f: NewFabric(w.Env(0), params), shadow: sim.NewEnv(seed)}
	for i, name := range []string{"a0", "b0", "a1", "b1"} {
		g.regions[i] = g.f.RegisterAt(name, 256, i/2)
		for j := range g.regions[i].Bytes()[64:] {
			g.regions[i].Bytes()[64+j] = byte(16*(i+1) + j%16)
		}
		g.qps[i] = g.f.Connect(g.regions[i])
	}
	return g
}

// ops is the batch every contract post sends to a region: a CAS that
// succeeds on a fresh word, two READs of the region's pattern, a WRITE.
func (g *postRig) ops(word int) []Op {
	return []Op{
		{Kind: OpCAS, Off: uint64(8 * word), Compare: 0, Swap: 7},
		{Kind: OpRead, Off: 64, Len: 24},
		{Kind: OpRead, Off: 96, Len: 40},
		{Kind: OpWrite, Off: 200, Data: []byte{1, 2, 3}},
	}
}

// post issues one contract post through Post (single target) or
// PostMulti and returns the per-batch results.
func (g *postRig) post(p *sim.Proc, single bool, targets []postTarget, word int) ([][]Result, error) {
	if single {
		res, err := g.qps[targets[0]].Post(p, g.ops(word))
		return [][]Result{res}, err
	}
	batches := make([]Batch, len(targets))
	for i, tg := range targets {
		batches[i] = Batch{QP: g.qps[tg], Ops: g.ops(word)}
	}
	return PostMulti(p, batches)
}

// wantLatency replays the post's latency draws on the shadow stream:
// one per batch, in batch order; the post costs the slowest.
func (g *postRig) wantLatency(targets []postTarget) sim.Duration {
	var max sim.Duration
	for range targets {
		ops := g.ops(0)
		if lat := g.f.latency(g.shadow.Rand(), Batch{Ops: ops}.Payload(), len(ops)); lat > max {
			max = lat
		}
	}
	return max
}

// checkBatch verifies one batch's results against its target region.
func (g *postRig) checkBatch(t *testing.T, what string, tg postTarget, res []Result) {
	t.Helper()
	if len(res) != 4 {
		t.Fatalf("%s: %d results, want 4", what, len(res))
	}
	if !res[0].OK || res[0].Old != 0 {
		t.Errorf("%s: CAS = (%d,%v), want (0,true)", what, res[0].Old, res[0].OK)
	}
	buf := g.regions[tg].Bytes()
	if !bytes.Equal(res[1].Data, buf[64:88]) || !bytes.Equal(res[2].Data, buf[96:136]) {
		t.Errorf("%s: READ payloads %v / %v do not match region %s", what, res[1].Data, res[2].Data, g.regions[tg].name)
	}
}

// TestPostContract pins what a post guarantees whatever its shape:
// {Post, PostMulti} x {all-local, all-remote, mixed} on a 2-partition
// world (a single batch has one target, so Post has no mixed row).
func TestPostContract(t *testing.T) {
	rows := []struct {
		name    string
		single  bool
		targets []postTarget
		// Events the post adds to the issuing partition's scheduler, the
		// issuer's one resume included, and to partition 1's.
		issuerEvents, targetEvents uint64
		// Batches CrossLaneStats must count: those applied elsewhere.
		crossed uint64
	}{
		{"Post/local", true, []postTarget{a0}, 2, 0, 0},               // midpoint call + resume
		{"Post/remote", true, []postTarget{a1}, 2, 1, 1},              // wake call + resume | apply
		{"PostMulti/local", false, []postTarget{a0, b0}, 2, 0, 0},     // midpoint call + resume
		{"PostMulti/remote", false, []postTarget{a1, b1}, 2, 1, 2},    // wake call + resume | one apply for both
		{"PostMulti/mixed", false, []postTarget{a0, a1, b0}, 3, 1, 1}, // local apply + wake call + resume | apply
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := newPostRig(7)
			n := uint64(len(row.targets))
			cross := row.crossed > 0
			env := g.w.Env(0)
			env.Spawn("issuer", func(p *sim.Proc) {
				// 1. A clean post: slots, latency, events, counters.
				before, d0, d1, start := g.f.lanes[0].stats, env.Dispatched(), g.w.Env(1).Dispatched(), p.Now()
				want := g.wantLatency(row.targets)
				out, err := g.post(p, row.single, row.targets, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got := p.Now().Sub(start); got != want {
					t.Errorf("post took %v, want the slowest batch's %v", got, want)
				}
				if got := env.Dispatched() - d0; got != row.issuerEvents {
					t.Errorf("issuing partition dispatched %d events, want %d: the issuer must park exactly once", got, row.issuerEvents)
				}
				if got := g.w.Env(1).Dispatched() - d1; got != row.targetEvents {
					t.Errorf("target partition dispatched %d events, want %d", got, row.targetEvents)
				}
				if len(out) != len(row.targets) {
					t.Fatalf("%d result slots, want %d", len(out), len(row.targets))
				}
				for i, tg := range row.targets {
					g.checkBatch(t, row.name, tg, out[i])
				}
				st := g.f.lanes[0].stats.Sub(before)
				if st.RTTs != n || st.CASes != n || st.Reads != 2*n || st.Writes != n || st.BytesRead != 64*n || st.BytesWrite != 3*n {
					t.Errorf("issuing lane counted %+v for %d batches", st, n)
				}
				if got := g.f.lanes[1].stats; got != (Stats{}) {
					t.Errorf("target lane counted %+v, want nothing: verbs count where they were posted", got)
				}
				c := row.crossed
				wantCross := Stats{RTTs: c, CASes: c, Reads: 2 * c, Writes: c, BytesRead: 64 * c, BytesWrite: 3 * c}
				if got := g.f.CrossLaneStats(0); got != wantCross {
					t.Errorf("CrossLaneStats = %+v, want %d batches: %+v", got, c, wantCross)
				}

				// READ payloads of one post never overlap: stamp each with its
				// own byte and look for damage.
				var reads [][]byte
				for _, res := range out {
					reads = append(reads, res[1].Data, res[2].Data)
				}
				for k, data := range reads {
					for j := range data {
						data[j] = byte(k)
					}
				}
				for k, data := range reads {
					for j := range data {
						if data[j] != byte(k) {
							t.Fatalf("READ payload %d overlaps payload %d", k, data[j])
						}
					}
				}

				// 2. When the counters land: at the midpoint for a local post,
				// at completion for a post that crosses.
				before, start = g.f.lanes[0].stats, p.Now()
				want = g.wantLatency(row.targets)
				var early, late Stats
				earlyAt, lateAt := start.Add(want/2-1), start.Add(want/2+1)
				if cross {
					lateAt = start.Add(want - 1)
				}
				env.CallAt(earlyAt, func() { early = g.f.lanes[0].stats.Sub(before) })
				env.CallAt(lateAt, func() { late = g.f.lanes[0].stats.Sub(before) })
				if _, err := g.post(p, row.single, row.targets, 1); err != nil {
					t.Fatal(err)
				}
				if early != (Stats{}) {
					t.Errorf("counters moved before the midpoint: %+v", early)
				}
				if cross && late != (Stats{}) {
					t.Errorf("a crossing post's counters moved before completion: %+v", late)
				}
				if !cross && late != st {
					t.Errorf("a local post's counters at the midpoint are %+v, want %+v", late, st)
				}
				if got := g.f.lanes[0].stats.Sub(before); got != st {
					t.Errorf("second post counted %+v, want %+v", got, st)
				}

				// 3. Failed regions: the first error in batch order, the failed
				// batches' results nil, the others intact, every batch an RTT.
				last := len(row.targets) - 1
				g.regions[row.targets[last]].Fail()
				if last > 0 {
					g.regions[row.targets[1]].Fail()
				}
				before = g.f.lanes[0].stats
				g.wantLatency(row.targets) // keep the shadow stream in step
				out, err = g.post(p, row.single, row.targets, 2)
				firstFailed := g.regions[row.targets[min(1, last)]]
				if err == nil || !strings.Contains(err.Error(), `"`+firstFailed.name+`"`) {
					t.Errorf("error %v, want the first failed batch's (region %s)", err, firstFailed.name)
				}
				for i, tg := range row.targets {
					if g.regions[tg].Failed() {
						if out[i] != nil {
							t.Errorf("failed batch %d has results %v", i, out[i])
						}
						continue
					}
					g.checkBatch(t, row.name+" beside a failed batch", tg, out[i])
				}
				if got := g.f.lanes[0].stats.Sub(before).RTTs; got != n {
					t.Errorf("failing post counted %d RTTs, want %d", got, n)
				}
			})
			if err := g.w.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
