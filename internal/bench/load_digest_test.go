package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"crest/internal/pin"
	"crest/internal/workload"
)

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
// region, node by node. One part of a region is hashed as a set, not as
// bytes: at e94364e, where the pins were generated, FinishLoad walked a
// Go map into the hash index, so which of a bucket's four entries (or,
// on overflow, which neighbouring bucket) a key took differed from run
// to run. The digest takes each index's non-empty 16-byte entries in
// sorted order; every byte outside the indexes is hashed where it lies.
func loadDigest(t *testing.T, sys SystemKind, mk func() workload.Generator) string {
	t.Helper()
	cfg := Config{System: sys, Workload: mk, Replicas: 1}.WithDefaults()
	gen := mk()
	d, err := Deploy(cfg, gen.Tables(), false)
	if err != nil {
		t.Fatal(err)
	}
	d.load(gen)
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

// TestLoadDigests holds the bytes of every memory node's region after
// Load + FinishLoad, per quick-profile workload and record format, to
// testdata/load.digest. Its rows were generated at commit e94364e,
// before the loader stopped allocating per record, and a loader change
// never edits them: a moved byte is a changed RNG draw, value, slot or
// replica copy. Replicas is 1, so a record's two copies are both under
// the hash.
func TestLoadDigests(t *testing.T) {
	got := map[string]string{}
	for _, wl := range []string{"smallbank", "tpcc", "ycsb"} {
		for _, sys := range []SystemKind{CREST, FORD, Motor} {
			got[fmt.Sprintf("%s/%s", wl, sys)] = loadDigest(t, sys, loadWorkloads()[wl])
		}
	}
	pin.Rows(t, "testdata/load.digest", got)
}

// TestLoadedTablesAreDense: every quick-profile table loads its keys
// 0, 1, 2, … in row order, so its directory holds them by arithmetic
// and no table carries a key → offset map. A loader that changes its
// key order shows up here as a changed list, not as a slower set-up.
func TestLoadedTablesAreDense(t *testing.T) {
	want := "smallbank: checking savings; tpcc: customer district history item neworder orderline orders stock warehouse; ycsb: usertable"
	var got []string
	for _, wl := range []string{"smallbank", "tpcc", "ycsb"} {
		mk := loadWorkloads()[wl]
		gen := mk()
		d, err := Deploy(Config{System: CREST, Workload: mk}.WithDefaults(), gen.Tables(), false)
		if err != nil {
			t.Fatal(err)
		}
		gen.Load(d.Sys.Load)
		var dense []string
		for _, def := range gen.Tables() {
			if d.db.Table(def.Schema.ID).Dense() {
				dense = append(dense, def.Schema.Name)
			}
		}
		d.Close()
		sort.Strings(dense)
		got = append(got, wl+": "+strings.Join(dense, " "))
	}
	if s := strings.Join(got, "; "); s != want {
		t.Errorf("tables loaded dense:\n got %s\nwant %s", s, want)
	}
}
