package rdma

import (
	"bytes"
	"testing"

	"crest/internal/sim"
)

// BenchmarkFabricRead measures the single-verb READ fast path:
// post, single midpoint park, scratch-served payload.
func BenchmarkFabricRead(b *testing.B) {
	env := sim.NewEnv(1)
	f := NewFabric(env, noJitter())
	qp := f.Connect(f.Register("mn0", 4096))
	env.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := qp.Read(p, 0, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFabricCASBatch measures a doorbell batch of four CAS verbs
// — the shape of a lock-acquire round in every engine.
func BenchmarkFabricCASBatch(b *testing.B) {
	env := sim.NewEnv(1)
	f := NewFabric(env, noJitter())
	qp := f.Connect(f.Register("mn0", 4096))
	ops := make([]Op, 4)
	env.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			for j := range ops {
				ops[j] = Op{Kind: OpCAS, Off: uint64(j * 64), Compare: 0, Swap: 1}
			}
			res, err := qp.Post(p, ops)
			if err != nil {
				b.Fatal(err)
			}
			for j := range ops {
				ops[j] = Op{Kind: OpCAS, Off: uint64(j * 64), Compare: 1, Swap: 0}
			}
			if !res[0].OK {
				b.Fatal("first CAS lost on an uncontended word")
			}
			if _, err := qp.Post(p, ops); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFabricPostMulti measures the post every engine sends: one
// batch to each of two regions in one round-trip. "local" keeps both in
// the issuer's partition; "cross" puts the second in another partition
// of a 2-partition world, so the post takes the mailbox seam.
func BenchmarkFabricPostMulti(b *testing.B) {
	for i, name := range []string{"local", "cross"} {
		parts := i + 1
		b.Run(name, func(b *testing.B) {
			w := sim.NewWorld(1, parts, noJitter().Lookahead())
			f := NewFabric(w.Env(0), noJitter())
			payload := make([]byte, 64)
			batches := []Batch{
				{QP: f.Connect(f.RegisterAt("mn0", 4096, 0)), Ops: []Op{{Kind: OpRead, Len: 64}, {Kind: OpWrite, Off: 64, Data: payload}}},
				{QP: f.Connect(f.RegisterAt("mn1", 4096, parts-1)), Ops: []Op{{Kind: OpWrite, Off: 64, Data: payload}}},
			}
			w.Env(0).Spawn("bench", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					if _, err := PostMulti(p, batches); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := w.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestVerbSteadyStateZeroAlloc pins the per-verb allocation contract:
// after the first round-trip sizes the descriptor scratch, READ,
// WRITE, CAS and multi-batch posts allocate nothing.
func TestVerbSteadyStateZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	f := NewFabric(env, noJitter())
	r0 := f.Register("mn0", 4096)
	r1 := f.Register("mn1", 4096)
	qp0, qp1 := f.Connect(r0), f.Connect(r1)
	payload := []byte("0123456789abcdef")
	batches := []Batch{
		{QP: qp0, Ops: []Op{{Kind: OpCAS, Off: 0, Compare: 0, Swap: 1}, {Kind: OpRead, Off: 0, Len: 64}}},
		{QP: qp1, Ops: []Op{{Kind: OpWrite, Off: 128, Data: payload}}},
	}
	env.Spawn("probe", func(p *sim.Proc) {
		verbs := map[string]func(){
			"read":  func() { qp0.Read(p, 0, 64) },
			"write": func() { qp0.Write(p, 64, payload) },
			"cas":   func() { qp0.CAS(p, 256, 0, 0) },
			"multi": func() {
				batches[0].Ops[0].Compare = 0
				PostMulti(p, batches)
				batches[0].Ops[0].Compare = 1
				batches[0].Ops[0].Swap = 0
				PostMulti(p, batches)
			},
		}
		for _, name := range []string{"read", "write", "cas", "multi"} {
			fn := verbs[name]
			fn() // warm up this verb's descriptor scratch
			if avg := testing.AllocsPerRun(20, fn); avg > 0 {
				t.Errorf("steady-state %s allocates %.1f objects per post, want 0", name, avg)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	// The same contract across the partition seam: a post with a local
	// and a remote batch, once its descriptor, apply subs and the
	// mailbox have been sized.
	w := sim.NewWorld(1, 2, noJitter().Lookahead())
	f = NewFabric(w.Env(0), noJitter())
	cross := []Batch{
		{QP: f.Connect(f.RegisterAt("mn0", 4096, 0)), Ops: []Op{{Kind: OpCAS, Off: 0, Compare: 0, Swap: 0}, {Kind: OpRead, Off: 0, Len: 64}}},
		{QP: f.Connect(f.RegisterAt("mn1", 4096, 1)), Ops: []Op{{Kind: OpWrite, Off: 128, Data: payload}, {Kind: OpRead, Off: 0, Len: 64}}},
	}
	w.Env(0).Spawn("probe", func(p *sim.Proc) {
		fn := func() {
			PostMulti(p, cross)
			cross[1].QP.Read(p, 0, 64)
		}
		fn()
		if avg := testing.AllocsPerRun(20, fn); avg > 0 {
			t.Errorf("steady-state cross-partition post allocates %.1f objects per post, want 0", avg)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteAppliesAtMidpoint pins the single-park timing contract:
// verbs take effect at the virtual midpoint of their round-trip, the
// instant the old request-sleep/apply/response-sleep implementation
// applied them.
func TestWriteAppliesAtMidpoint(t *testing.T) {
	env := sim.NewEnv(1)
	params := noJitter()
	f := NewFabric(env, params)
	r := f.Register("mn0", 1024)
	qp := f.Connect(r)

	// Measure one write's full round-trip first.
	var rtt sim.Duration
	probe := env.Spawn("probe", func(p *sim.Proc) {
		start := p.Now()
		if err := qp.Write(p, 0, []byte{7}); err != nil {
			t.Error(err)
			return
		}
		rtt = p.Now().Sub(start)
	})
	_ = probe
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt == 0 {
		t.Fatal("no round-trip measured")
	}

	// A second write starts at t0; watchers sample the region's memory
	// directly just before and just after the virtual midpoint.
	var before, after byte
	t0 := env.Now()
	mid := t0 + sim.Time(rtt/2)
	env.Spawn("writer", func(p *sim.Proc) {
		if err := qp.Write(p, 64, []byte{42}); err != nil {
			t.Error(err)
		}
	})
	env.CallAt(mid-1, func() { before = r.Bytes()[64] })
	env.CallAt(mid+1, func() { after = r.Bytes()[64] })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("write visible %v before its midpoint", sim.Duration(1))
	}
	if after != 42 {
		t.Fatal("write not applied immediately after its midpoint")
	}
}

// TestReadScratchReusedAcrossPosts pins the documented READ lifetime:
// Result.Data is descriptor scratch that the next post on the same QP
// may overwrite — callers must consume it first.
func TestReadScratchReusedAcrossPosts(t *testing.T) {
	runOne(t, noJitter(), func(p *sim.Proc, f *Fabric) {
		r := f.Register("mn0", 1024)
		qp := f.Connect(r)
		if err := qp.Write(p, 0, []byte{1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if err := qp.Write(p, 512, []byte{2, 2, 2, 2}); err != nil {
			t.Fatal(err)
		}
		first, err := qp.Read(p, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, []byte{1, 1, 1, 1}) {
			t.Fatalf("first read %v", first)
		}
		if _, err := qp.Read(p, 512, 4); err != nil {
			t.Fatal(err)
		}
		// The first slice now aliases recycled scratch. Its content is
		// unspecified; the contract under test is only that same-sized
		// reads reuse the buffer rather than allocating fresh copies.
		second, err := qp.Read(p, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if &first[0] != &second[0] {
			t.Fatal("same-shape reads did not reuse descriptor scratch; the zero-alloc contract is broken")
		}
	})
}
