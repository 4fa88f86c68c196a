package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"crest/internal/sim"
)

// FuzzJSONString holds AppendJSONString to encoding/json's bytes for
// any string, valid UTF-8 or not, from a string and from a []byte.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `quo"te`, `back\slash`, "<script>&amp;</script>",
		"\x00\x01\x02\x03\x04\x05\x06\x07\b\t\n\x0b\f\r\x0e\x0f\x10\x1f \x7f",
		"line\u2028sep\u2029end", "héllo wörld ✓ 🚀", "cut\xe2\x82", "\xff\xfe", "\xc0\xaf", "a\xf0\x9f\x9a", "\xed\xa0\x80",
		"\xe2\x80", "\xe2\x80\xa8", "\xe2\x80\xa9\xe2", "\u2027\u202a", "\ufffd",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json makes %s", s, got, want)
		}
		if got := AppendJSONString([]byte("x"), []byte(s)); !bytes.Equal(got[1:], want) {
			t.Errorf("AppendJSONString([]byte(%q)) = %s, encoding/json makes %s", s, got[1:], want)
		}
	})
}

// FuzzJSONFloat holds JSONWriter.Float to encoding/json's bytes for any
// float64 — the exponent switch below 1e-6 and from 1e21, the exponent
// written without a leading zero — and to its refusal of NaN and ±Inf.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.001, 0.999, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 5e-324,
		1e20, 9.99e20, 1e21, 1e22, -1e21, 1.7976931348623157e308, 123456.789, 9223372036854775.807, 0.1 + 0.2,
		1 << 53, 1<<53 + 2, 100, 1e6, 12345678901234567890,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, wantErr := json.Marshal(v)
		var buf bytes.Buffer
		j := NewJSONWriter(&buf, false)
		j.Float(v)
		err := j.Close()
		if wantErr != nil {
			if err == nil {
				t.Errorf("Float(%v) wrote %q; encoding/json refuses it: %v", v, buf.Bytes(), wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Float(%v): %v", v, err)
		}
		if got := bytes.TrimSuffix(buf.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
			t.Errorf("Float(%v) = %s, encoding/json makes %s", v, got, want)
		}
	})
}

// TestJSONWriterMatchesEncodingJSON writes one document that has every
// shape the writer knows — nested and empty containers, null, each
// scalar — compact and indented, and compares it with what
// encoding/json makes of the same value.
func TestJSONWriterMatchesEncodingJSON(t *testing.T) {
	value := map[string]any{
		"a": []any{},
		"b": map[string]any{},
		"c": []any{1, []any{-2, map[string]any{"d": nil}}, "s<", 0.5, true, false},
		"e": map[string]any{"f": map[string]any{"g": []any{[]any{}, []any{nil}}}},
		"h": uint64(math.MaxUint64),
		"i": int64(math.MinInt64),
	}
	write := func(j *JSONWriter) {
		j.Object()
		j.Key("a").Array()
		j.EndArray()
		j.Key("b").Object()
		j.EndObject()
		j.Key("c").Array()
		j.Int(1)
		j.Array()
		j.Int(-2)
		j.Object()
		j.Key("d").Null()
		j.EndObject()
		j.EndArray()
		j.String("s<")
		j.Float(0.5)
		j.Bool(true)
		j.Bool(false)
		j.EndArray()
		j.Key("e").Object()
		j.Key("f").Object()
		j.Key("g").Array()
		j.Array()
		j.EndArray()
		j.Array()
		j.Null()
		j.EndArray()
		j.EndArray()
		j.EndObject()
		j.EndObject()
		j.Key("h").Uint(math.MaxUint64)
		j.Key("i").Int(math.MinInt64)
		j.EndObject()
	}
	for _, indent := range []bool{false, true} {
		want, err := json.Marshal(value)
		if indent {
			want, err = json.MarshalIndent(value, "", "  ")
		}
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		j := NewJSONWriter(&got, indent)
		write(j)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), append(want, '\n')) {
			t.Errorf("indent=%v:\n got %s\nwant %s", indent, got.Bytes(), want)
		}
	}
}

// TestJSONWriterFlushesAndKeepsTheFirstError writes four buffers' worth
// to a writer that fails on its second write: the bytes reach it in
// flushes, not at Close; nothing is written after the failure; and Close
// reports it.
func TestJSONWriterFlushesAndKeepsTheFirstError(t *testing.T) {
	errFull := errors.New("full")
	writes := 0
	w := writerFunc(func(p []byte) (int, error) {
		if writes++; writes == 2 {
			return 0, errFull
		}
		return len(p), nil
	})
	j := NewJSONWriter(w, false)
	j.Array()
	for i := 0; i < 4*jsonFlushAt/8; i++ {
		j.Object()
		j.Key("k").Int(int64(i))
		j.EndObject()
	}
	if writes != 2 {
		t.Errorf("%d writes before Close, want 2: one flushed, one failed, none after", writes)
	}
	j.EndArray()
	if err := j.Close(); !errors.Is(err, errFull) || writes != 2 {
		t.Errorf("Close = %v after %d writes, want the second write's error and no third write", err, writes)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMicrosWritesWhatFloatWrites: the Chrome export's integer path
// for times writes the bytes Float writes — for every nanosecond count
// up to 0.2 ms, for counts spread up to and past 2^40 µs, for RTT
// starts computed as usTime(At)-lat, and for values that are no
// nanosecond count's quotient at all.
func TestMicrosWritesWhatFloatWrites(t *testing.T) {
	var got, want bytes.Buffer
	c := &chromeWriter{JSONWriter: NewJSONWriter(&got, false)}
	ref := NewJSONWriter(&want, false)
	check := func(v float64) {
		t.Helper()
		got.Reset()
		want.Reset()
		c.first, ref.first = true, true
		c.micros(v)
		ref.Float(v)
		c.flush()
		ref.flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("micros(%v) = %s, Float writes %s", v, got.Bytes(), want.Bytes())
		}
	}
	for ns := int64(0); ns < 200_000; ns++ {
		check(usTime(sim.Time(ns)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		ns := rng.Int63n(1 << 40 * 1000 * 2)
		check(usTime(sim.Time(ns)))
		lat := rng.Int63n(100_000)
		check(usTime(sim.Time(ns)) - usDur(sim.Duration(lat)))
		check(float64(ns) / 1e6)
	}
	for _, v := range []float64{1 << 40, 1<<40 - 0.001, 1<<40 + 0.001, math.Copysign(0, -1), -0.001, -1.5, 0.0005, 1e-7, 1e21} {
		check(v)
	}
}

// TestJSONWriterIndentsDeepNesting: indentation past the levels one
// slice holds is written as encoding/json writes it.
func TestJSONWriterIndentsDeepNesting(t *testing.T) {
	const depth = 70
	var value any = []any{1}
	for i := 1; i < depth; i++ {
		value = []any{value}
	}
	want, err := json.MarshalIndent(value, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	j := NewJSONWriter(&got, true)
	for i := 0; i < depth; i++ {
		j.Array()
	}
	j.Int(1)
	for i := 0; i < depth; i++ {
		j.EndArray()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), append(want, '\n')) {
		t.Errorf("got %s\nwant %s", got.Bytes(), want)
	}
}
