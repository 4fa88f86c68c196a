package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"

	"crest/internal/workload"
)

// loadDigests pins the bytes of every memory node's region after
// Load + FinishLoad, per quick-profile workload and record format. It
// was generated at commit e94364e, before the loader stopped allocating
// per record, and a loader change never edits it: a moved byte is a
// changed RNG draw, value, slot or replica copy. Replicas is 1, so a
// record's two copies are both under the hash.
//
// One part of a region is hashed as a set, not as bytes: at e94364e
// FinishLoad walked a Go map into the hash index, so which of a
// bucket's four entries (or, on overflow, which neighbouring bucket) a
// key took differed from run to run. The digest takes each index's
// non-empty 16-byte entries in sorted order; every byte outside the
// indexes is hashed where it lies.
var loadDigests = map[string]string{
	"smallbank/crest": "6d3de6186a67a97dd2709b6f4b0518418da3fc10e00cd9c1d10a95431c0c101f",
	"smallbank/ford":  "691f71a3e24748112ef8d3a1c1d4a3c2696fdcc85db68162634eaab9dc2fbaad",
	"smallbank/motor": "87ec6d086ab5e7085ee01e4e6ba35c21d8467034b70286cb4fb6ccf1da8217a6",
	"tpcc/crest":      "f491737bc65bb76fb0ca20e3fcdeeab47b92f1f1826d44775dacbe4cedd15d70",
	"tpcc/ford":       "0765df876b5fc31065016013b45f7cf06da767be480442ffe7cd44da28e36c51",
	"tpcc/motor":      "625b8ff053775597822671a8ed96ec2153bc46c87eab53dd712df96b9a74e98e",
	"ycsb/crest":      "45931822a4478d52a78ed04939eb120db6d00ec98e038bc0ee0985e708793c7e",
	"ycsb/ford":       "6b498d08f3fbd9cfaddd1c814335edcc635d65eff543c5889e7e229c99715170",
	"ycsb/motor":      "184074377f807b9e4d4988e1fb59cb4f334c9a806b6e60fbfbfd1f7fd2df3843",
}

// loadWorkloads are the three quick-profile generators.
func loadWorkloads() map[string]func() workload.Generator {
	p := Quick()
	return map[string]func() workload.Generator{
		"smallbank": p.SmallBank(0.99),
		"tpcc":      p.TPCC(40),
		"ycsb":      p.YCSB(0.99, 0.5, 4),
	}
}

// loadDigest deploys sys, loads gen's records and hashes every node's
// region, node by node (see loadDigests for the index rule).
func loadDigest(t *testing.T, sys SystemKind, mk func() workload.Generator) string {
	t.Helper()
	cfg := Config{System: sys, Workload: mk, Replicas: 1}.WithDefaults()
	gen := mk()
	d, err := Deploy(cfg, gen.Tables(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	gen.Load(d.Sys.Load)
	if err := d.Sys.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi uint64 }
	var indexes []span
	for _, tb := range d.db.Tables {
		base, size := tb.IndexRegion()
		indexes = append(indexes, span{base, base + uint64(size)})
	}
	sort.Slice(indexes, func(i, j int) bool { return indexes[i].lo < indexes[j].lo })
	const entry = 16
	var empty [entry]byte
	h := sha256.New()
	for _, n := range d.Pool.Nodes() {
		buf := n.Region.Bytes()
		at := uint64(0)
		for _, ix := range indexes {
			h.Write(buf[at:ix.lo])
			var entries []string
			for off := ix.lo; off < ix.hi; off += entry {
				if e := string(buf[off : off+entry]); e != string(empty[:]) {
					entries = append(entries, e)
				}
			}
			sort.Strings(entries)
			for _, e := range entries {
				io.WriteString(h, e)
			}
			at = ix.hi
		}
		h.Write(buf[at:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLoadDigests holds the loader to loadDigests. PRINT_LOAD_DIGESTS=1
// prints the table instead of comparing it.
func TestLoadDigests(t *testing.T) {
	print := os.Getenv("PRINT_LOAD_DIGESTS") != ""
	for _, wl := range []string{"smallbank", "tpcc", "ycsb"} {
		for _, sys := range []SystemKind{CREST, FORD, Motor} {
			name := fmt.Sprintf("%s/%s", wl, sys)
			got := loadDigest(t, sys, loadWorkloads()[wl])
			if print {
				fmt.Printf("\t%q: %q,\n", name, got)
				continue
			}
			if want := loadDigests[name]; got != want {
				t.Errorf("%s: regions after load hash to %s, pinned %s", name, got, want)
			}
		}
	}
}
