// Package pin stores, compares and rewrites the repository's pinned
// test outputs: row files of digests (testdata/*.digest) and whole-file
// goldens. A test hands it what it produced. With REPIN=1 in the
// environment it writes that instead of comparing; .github/repin.sh
// does so for every pin at once.
//
// A row file has one "name value" line per row, sorted by name. The
// name has no whitespace; the value is the rest of the line.
package pin

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// Rows holds got, row name to value, to the row file at path. It fails
// on a changed value, on a produced row with no pin, and on a pinned
// row nothing produced (an orphan). With REPIN=1 it writes got instead;
// orphans are kept and still reported, so a filtered -run never deletes
// a row.
func Rows(t testing.TB, path string, got map[string]string) {
	t.Helper()
	for _, p := range rows(path, got, repin()) {
		t.Error(p)
	}
}

// File holds got to the whole file at path. With REPIN=1 it writes got
// instead.
func File(t testing.TB, path string, got []byte) {
	t.Helper()
	for _, p := range file(path, got, repin()) {
		t.Error(p)
	}
}

func repin() bool { return os.Getenv("REPIN") != "" }

// rows compares got with the row file at path, or rewrites the file,
// and returns what to report.
func rows(path string, got map[string]string, rewrite bool) (problems []string) {
	pinned, line := map[string]string{}, map[string]int{}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return []string{err.Error()}
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		name, value, _ := strings.Cut(sc.Text(), " ")
		if name == "" || value == "" {
			return []string{fmt.Sprintf("%s:%d: want \"name value\", got %q", path, n, sc.Text())}
		}
		if line[name] > 0 {
			return []string{fmt.Sprintf("%s:%d %s: pinned again (first on line %d)", path, n, name, line[name])}
		}
		pinned[name], line[name] = value, n
	}
	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range pinned {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, name := range names {
		value, produced := got[name]
		switch {
		case !produced:
			value = pinned[name]
			problems = append(problems, fmt.Sprintf("%s:%d %s: pinned %s, but nothing produced it", path, line[name], name, value))
		case rewrite:
		case line[name] == 0:
			problems = append(problems, fmt.Sprintf("%s %s: got %s, no pin", path, name, value))
		case value != pinned[name]:
			problems = append(problems, fmt.Sprintf("%s:%d %s: got %s, pinned %s", path, line[name], name, value, pinned[name]))
		}
		fmt.Fprintf(&b, "%s %s\n", name, value)
	}
	if rewrite {
		problems = append(problems, file(path, b.Bytes(), true)...)
	}
	return problems
}

// file compares got with the file at path, naming the first line that
// differs, or rewrites the file, and returns what to report.
func file(path string, got []byte, rewrite bool) []string {
	if rewrite {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			return []string{err.Error()}
		}
		return nil
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	n := 0
	for n < len(got) && n < len(pinned) && got[n] == pinned[n] {
		n++
	}
	if n == len(got) && n == len(pinned) {
		return nil
	}
	return []string{fmt.Sprintf("%s:%d: differs from what the test produced", path, bytes.Count(got[:n], []byte("\n"))+1)}
}
