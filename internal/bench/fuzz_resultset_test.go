package bench

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeResultSet: a crest-bench document is rejected with an error
// or yields a result set that encodes again and compares against
// itself (the -baseline path) — never a panic.
func FuzzDecodeResultSet(f *testing.F) {
	p := matrixProfile()
	r := newRunner(p, MatrixOptions{})
	if err := r.run(p.Spec(FORD, SmallBankSpec(0.9), 6)); err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	if err := (&ResultSet{Schema: SchemaVersion, Profile: p.Name, Runs: r.records(), Perf: r.perf()}).Encode(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add(doc.Bytes()[:doc.Len()/2])
	f.Add([]byte(`{"schema":"crest-bench/v2","profile":"quick","runs":[]}`))
	f.Add([]byte(`{"schema":"crest-bench/v3","runs":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeResultSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Encode(io.Discard); err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		CompareResultSets(s, s).Format()
	})
}
