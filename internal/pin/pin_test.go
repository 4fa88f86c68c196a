package pin

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func pinned(t *testing.T, content string) string {
	path := filepath.Join(t.TempDir(), "p.digest")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRows(t *testing.T) {
	ab := map[string]string{"a": "1", "b": "2"}
	for _, tc := range []struct {
		name, pinned string
		got          map[string]string
		want         []string // each after the file's path
	}{
		{"equal", "a 1\nb two words\n", map[string]string{"a": "1", "b": "two words"}, nil},
		{"changed value", "a 1\nb 3\n", ab, []string{":2 b: got 2, pinned 3"}},
		{"orphan and unpinned", "a 1\nc 3\n", ab, []string{" b: got 2, no pin", ":2 c: pinned 3, but nothing produced it"}},
		{"duplicate", "a 1\nb 2\na 1\n", ab, []string{":3 a: pinned again (first on line 1)"}},
		{"no value", "a 1\nb\n", ab, []string{`:2: want "name value", got "b"`}},
		{"empty value", "a 1\nb \n", ab, []string{`:2: want "name value", got "b "`}},
		{"blank line", "a 1\n\nb 2\n", ab, []string{`:2: want "name value", got ""`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := pinned(t, tc.pinned)
			var want []string
			for _, w := range tc.want {
				want = append(want, path+w)
			}
			if got := rows(path, tc.got, false); !slices.Equal(got, want) {
				t.Errorf("reported %q, want %q", got, want)
			}
		})
	}
}

func TestFileNamesTheFirstDifferingLine(t *testing.T) {
	path := pinned(t, "x\ny\nz\n")
	for got, line := range map[string]string{"x\ny\nz\n": "", "x\nY\nz\n": ":2", "x\n": ":2", "x\ny\nz\n\n": ":4"} {
		var want []string
		if line != "" {
			want = []string{path + line + ": differs from what the test produced"}
		}
		if p := file(path, []byte(got), false); !slices.Equal(p, want) {
			t.Errorf("%q: reported %q, want %q", got, p, want)
		}
	}
}

// A rewrite writes what was produced, sorted, and keeps and reports an
// orphan; the next comparison passes.
func TestRewriteThenCompareAgainPasses(t *testing.T) {
	path := pinned(t, "b 2\nz 9\n")
	got := map[string]string{"b": "5", "a": "1"}
	if p := rows(path, got, true); len(p) != 1 {
		t.Fatalf("rewrite reported %q, want the orphan z", p)
	}
	if data, _ := os.ReadFile(path); string(data) != "a 1\nb 5\nz 9\n" {
		t.Fatalf("rewritten rows:\n%s", data)
	}
	got["z"] = "9"
	if p := rows(path, got, false); p != nil {
		t.Fatalf("second run reported %q", p)
	}
}
