package rdma

import (
	"testing"

	"crest/internal/sim"
)

// regionSizes is one region on each side of minMapped: made on the heap,
// and (on unix) mapped outside it.
var regionSizes = []int{4096, minMapped}

// postAll posts one verb of each kind at the region and returns how many
// of the four failed.
func postAll(p *sim.Proc, qp *QP) int {
	failed := 0
	if _, err := qp.Read(p, 0, 8); err != nil {
		failed++
	}
	if err := qp.Write(p, 64, []byte{1}); err != nil {
		failed++
	}
	if _, _, err := qp.CAS(p, 8, 0, 1); err != nil {
		failed++
	}
	if _, _, err := qp.MaskedCAS(p, 16, 0, 1, 1); err != nil {
		failed++
	}
	return failed
}

// TestClosedRegionRejectsVerbs: a verb posted after Close fails as one
// against a crashed node does — an error, never a fault on bytes that
// are gone — in a batch beside a live region too; Close is idempotent,
// and neither Fail nor Recover brings a closed region back.
func TestClosedRegionRejectsVerbs(t *testing.T) {
	for _, size := range regionSizes {
		runOne(t, noJitter(), func(p *sim.Proc, f *Fabric) {
			r, live := f.Register("mn0", size), f.Register("mn1", size)
			qp, qlive := f.Connect(r), f.Connect(live)
			if n := postAll(p, qp); n != 0 {
				t.Fatalf("size %d: %d of 4 verbs failed on an open region", size, n)
			}
			r.Fail()
			r.Recover()
			r.Close()
			r.Close()
			if r.Bytes() != nil || r.Size() != 0 {
				t.Errorf("size %d: a closed region still shows %d bytes", size, r.Size())
			}
			for _, state := range []string{"closed", "closed, failed", "closed, recovered"} {
				if n := postAll(p, qp); n != 4 || !r.Failed() {
					t.Errorf("size %d, %s: %d of 4 verbs failed (Failed() = %v), want all", size, state, n, r.Failed())
				}
				switch state {
				case "closed":
					r.Fail()
				case "closed, failed":
					r.Recover()
				}
			}
			out, err := PostMulti(p, []Batch{
				{QP: qp, Ops: []Op{{Kind: OpWrite, Off: 0, Data: []byte{7}}}},
				{QP: qlive, Ops: []Op{{Kind: OpWrite, Off: 0, Data: []byte{7}}}},
			})
			if err == nil || out[0] != nil || out[1] == nil {
				t.Errorf("size %d: PostMulti over a closed and a live region: results %v, error %v", size, out, err)
			}
			if live.Bytes()[0] != 7 {
				t.Errorf("size %d: the live region's batch did not apply", size)
			}
			live.Close()
		})
	}
}

// TestFreshRegionReadsZero: a region reads as zeroes wherever its bytes
// come from (LoadRecord relies on it), also when the address range was
// used, dirtied and given back just before.
func TestFreshRegionReadsZero(t *testing.T) {
	f := NewFabric(sim.NewEnv(1), noJitter())
	for _, size := range regionSizes {
		for round := 0; round < 2; round++ {
			r := f.Register("mn", size)
			b := r.Bytes()
			if len(b) != size || r.Size() != size {
				t.Fatalf("size %d: region of %d bytes", size, len(b))
			}
			for i, v := range b {
				if v != 0 {
					t.Fatalf("size %d, round %d: byte %d of a fresh region is %#x", size, round, i, v)
				}
			}
			for i := range b {
				b[i] = 0xA5
			}
			r.Close()
		}
	}
}

// TestPopulateChangesNoByte: on a region on the heap, a mapped one and
// a closed one, Populate of any span, in range or not, leaves every
// byte as it was and does not fault.
func TestPopulateChangesNoByte(t *testing.T) {
	for _, size := range regionSizes {
		r := NewFabric(sim.NewEnv(1), noJitter()).Register("mn0", size)
		b := r.Bytes()
		for i := range b {
			b[i] = byte(i)
		}
		for _, span := range [][2]int{{0, size}, {1, size - 2}, {0, 0}, {size, 1}, {0, size + 1}, {size / 2, -1}} {
			r.Populate(uint64(span[0]), span[1])
		}
		for i := range b {
			if b[i] != byte(i) {
				t.Fatalf("size %d: byte %d reads %d after Populate, want %d", size, i, b[i], byte(i))
			}
		}
		r.Close()
		r.Populate(0, size)
	}
}
