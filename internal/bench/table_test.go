package bench

import (
	"strings"
	"testing"

	"crest/internal/layout"
	"crest/internal/workload"
)

func TestTableFormatAligns(t *testing.T) {
	tab := Table{
		ID:     "t1",
		Title:  "demo",
		Header: []string{"a", "long-column", "b"},
		Rows: [][]string{
			{"1", "2", "3"},
			{"10000", "20", "30"},
		},
		Notes: []string{"a note"},
	}
	out := tab.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== t1: demo ==") {
		t.Fatalf("header line %q", lines[0])
	}
	// Columns align: the index of "long-column" in the header matches
	// the index of "20" in the wide row.
	hIdx := strings.Index(lines[1], "long-column")
	rIdx := strings.Index(lines[3], "20")
	if hIdx != rIdx {
		t.Fatalf("misaligned columns: %d vs %d\n%s", hIdx, rIdx, out)
	}
	if !strings.Contains(lines[4], "note: a note") {
		t.Fatalf("missing note: %q", lines[4])
	}
}

func TestTableFormatEdgeCases(t *testing.T) {
	// A row wider than the header must not panic or drop cells, and
	// formatting is a pure function of the table value.
	tab := Table{
		ID:     "edge",
		Title:  "ragged",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2", "extra"}, {"3"}},
	}
	out := tab.Format()
	if !strings.Contains(out, "extra") {
		t.Fatalf("dropped overflow cell: %q", out)
	}
	if again := tab.Format(); again != out {
		t.Fatal("Format is not deterministic")
	}
	empty := Table{ID: "e", Title: "no rows", Header: []string{"x"}}
	lines := strings.Split(strings.TrimRight(empty.Format(), "\n"), "\n")
	if len(lines) != 2 { // title + header, no rows
		t.Fatalf("empty table rendered %d lines: %q", len(lines), empty.Format())
	}
}

func TestProfilesProduceWorkloads(t *testing.T) {
	for _, p := range []Profile{Quick(), Full()} {
		for name, gen := range map[string]func() workload.Generator{
			"tpcc":      p.TPCC(4),
			"smallbank": p.SmallBank(0.5),
			"ycsb":      p.YCSB(0.5, 0.5, 2),
		} {
			g := gen()
			if len(g.Tables()) == 0 {
				t.Fatalf("%s/%s: no tables", p.Name, name)
			}
			for _, def := range g.Tables() {
				if err := def.Schema.Normalize().Validate(); err != nil {
					t.Fatalf("%s/%s: %v", p.Name, name, err)
				}
			}
		}
	}
}

func TestExperimentIDsOrdered(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"fig2", "fig3", "fig4", "table1", "table2",
		"exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "scenario", "crossover", "tailprof"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	for _, id := range ids {
		if exp, ok := experimentByID(id); !ok || exp.Render == nil {
			t.Fatalf("experiment %s has no renderer", id)
		}
	}
}

func TestPoolBytesCoversWorstLayout(t *testing.T) {
	defs := []workload.TableDef{{
		Schema:   layout.Schema{ID: 1, Name: "x", CellSizes: []int{40, 40, 40, 40}},
		Capacity: 1000,
	}}
	got := PoolBytes(defs, 10)
	// Motor's multi-version layout is the biggest consumer:
	// 1000 records must fit with index and log slack on top.
	motor := layout.NewMotorRecord(defs[0].Schema).PaddedSize() * 1000
	if got < motor {
		t.Fatalf("PoolBytes %d below Motor footprint %d", got, motor)
	}
}

func TestTwoRecordGenShape(t *testing.T) {
	g := twoRecordGen{}
	if len(g.Tables()) != 1 {
		t.Fatal("tables")
	}
	loaded := 0
	g.Load(func(layout.TableID, layout.Key, [][]byte) { loaded++ })
	if loaded != 4 {
		t.Fatalf("loaded %d", loaded)
	}
	txn := g.Next(nil)
	if len(txn.Blocks[0].Ops) != 2 {
		t.Fatal("ops")
	}
	if !txn.Blocks[0].Ops[0].IsWrite() || txn.Blocks[0].Ops[1].IsWrite() {
		t.Fatal("op shapes")
	}
}
