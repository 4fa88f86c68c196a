package crest

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadRuntimeStats: a crest-runtime document is rejected with an
// error or yields stats that encode again and render as the window
// timeline (`cresttrace windows -in`) — never a panic.
func FuzzReadRuntimeStats(f *testing.F) {
	res, err := RunBenchmark(partitionedBenchCfg(1))
	if err != nil {
		f.Fatal(err)
	}
	// A few windows of the log are shape enough, and a small seed lets
	// the fuzzer spend its time mutating instead of copying.
	res.Runtime.WindowLog = res.Runtime.WindowLog[:8]
	var doc bytes.Buffer
	if err := writeRuntimeStats(&doc, res.Runtime); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add(doc.Bytes()[:doc.Len()/2])
	f.Add([]byte(`{"schema":"crest-bench/v3","profile":"quick","runs":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadRuntimeStats(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := writeRuntimeStats(io.Discard, s); err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		if err := WriteWindowTimeline(io.Discard, s); err != nil {
			t.Fatalf("accepted document does not render: %v", err)
		}
	})
}
