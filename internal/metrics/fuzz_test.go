package metrics

import (
	"bytes"
	"testing"
)

// FuzzReadJSON: a document is rejected with an error or yields a
// snapshot that encodes again — never a panic.
func FuzzReadJSON(f *testing.F) {
	var doc bytes.Buffer
	if err := WriteJSON(&doc, tinySnapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add(doc.Bytes()[:doc.Len()/2])
	f.Add([]byte(`{"schema":"crest-flight/v1","txns":[],"exemplars":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := WriteJSON(&bytes.Buffer{}, s); err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
	})
}
