package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestBenchQuickKeysRoundTrip pins RunSpec's wire form to the committed
// baseline: every record of BENCH_quick.json must decode into a spec
// whose recomputed Key() is the recorded key and whose re-encoding is
// byte-equal to the recorded "spec" object. A RunSpec field, tag or key
// change that would orphan the baseline fails here.
func TestBenchQuickKeysRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Key  string          `json:"key"`
			Spec json.RawMessage `json:"spec"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 152 {
		t.Fatalf("BENCH_quick.json has %d runs, want 152", len(doc.Runs))
	}
	for _, run := range doc.Runs {
		var spec RunSpec
		dec := json.NewDecoder(bytes.NewReader(run.Spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("%s: %v", run.Key, err)
		}
		if got := spec.Key(); got != run.Key {
			t.Errorf("key drifted:\n got %s\nwant %s", got, run.Key)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, run.Spec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want.Bytes()) {
			t.Errorf("%s: spec re-encodes differently:\n got %s\nwant %s", run.Key, enc, want.Bytes())
		}
	}
}
