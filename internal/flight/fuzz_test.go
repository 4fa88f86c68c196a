package flight

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadJSON: a document is rejected with an error or yields a
// snapshot that encodes again and renders through everything
// `cresttrace tail|critpath -in` runs on it — never a panic.
func FuzzReadJSON(f *testing.F) {
	var doc bytes.Buffer
	if err := WriteJSON(&doc, tinySnapshot(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add(doc.Bytes()[:doc.Len()/2])
	f.Add([]byte(`{"schema":"crest-why/v1","txns":[],"edges":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := WriteJSON(io.Discard, s); err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		if err := WriteTail(io.Discard, s, 5); err != nil {
			t.Fatalf("accepted document does not render its tail report: %v", err)
		}
		for _, txn := range s.Txns {
			_ = WriteCritPath(io.Discard, s, txn.ID) // an unknown id is an error, not a panic
		}
	})
}
