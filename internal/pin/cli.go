package pin

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Case is one pinned CLI invocation. Its stdout (stderr for Help) is
// pinned under Name and each file it writes under "Name:file", as the
// first 16 hex digits of their sha256.
type Case struct {
	Name   string
	Args   string   // split on spaces; "$T" is a per-case temporary directory
	Files  []string // files the invocation writes under $T
	Help   bool     // a -h invocation: pin stderr, expect exit code 2
	Golden string   // a whole-file golden stdout is held to, if set
}

// CLI runs each case through a command's run function as a subtest of
// t and holds the digests to the row file at path. vars are old, new
// pairs replaced in the arguments, like "$T".
func CLI(t *testing.T, path string, cases []Case, run func(args []string, stdout, stderr io.Writer) int, vars ...string) {
	t.Helper()
	got := map[string]string{}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := strings.NewReplacer(vars...).Replace(strings.ReplaceAll(c.Args, "$T", dir))
			code := run(strings.Fields(args), &stdout, &stderr)
			out, want := stdout.Bytes(), 0
			if c.Help {
				out, want = stderr.Bytes(), 2
			}
			if code != want {
				t.Fatalf("exit code %d, want %d\n%s", code, want, stderr.String())
			}
			got[c.Name] = digest(out)
			for _, f := range c.Files {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				got[c.Name+":"+f] = digest(data)
			}
			if c.Golden != "" {
				File(t, c.Golden, stdout.Bytes())
			}
		})
	}
	Rows(t, path, got)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
