package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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

// elementWriters are Elements callbacks of the shapes the exporters
// write: an object with nested containers per element; nothing for
// most elements (the Chrome export's raw stream skips event kinds);
// several values per element (its spans write each attempt and its
// phase slices); nothing for the first chunk and more, so that a chunk
// of the helper's comes first; and kilobytes per element, so that a
// chunk holds fewer elements than jsonChunk.
var elementWriters = map[string]func(w *JSONWriter, i int){
	"nested": func(w *JSONWriter, i int) {
		w.Object()
		w.Key("i").Int(int64(i))
		w.Key("s").String(strconv.Itoa(i) + "<&")
		w.Key("a").Array()
		for k := 0; k < i%3; k++ {
			w.Object()
			w.Key("k").Float(float64(k) / 4)
			w.EndObject()
		}
		w.EndArray()
		w.EndObject()
	},
	"sparse": func(w *JSONWriter, i int) {
		if i%5 == 2 {
			w.Int(int64(i))
		}
	},
	"several": func(w *JSONWriter, i int) {
		for k := 0; k <= i%3; k++ {
			w.Array()
			w.Uint(uint64(k))
			w.EndArray()
		}
	},
	"late": func(w *JSONWriter, i int) {
		if i > jsonChunk+7 {
			w.Bool(i%2 == 0)
		}
	},
	"large": func(w *JSONWriter, i int) {
		w.Object()
		w.Key("i").Int(int64(i))
		w.Key("text").String(strings.Repeat("x", 300+i%600))
		w.EndObject()
	},
}

// elementsDoc writes a document holding write's n elements twice, in
// two arrays at different depths, through Elements or through the
// plain loop, to w. It reports whether Elements handed chunks to its
// helper, and the writer's Close error.
func elementsDoc(w io.Writer, indent bool, n int, write func(*JSONWriter, int), chunked bool) (helped bool, err error) {
	j := NewJSONWriter(w, indent)
	elements := func() {
		if chunked {
			j.Elements(n, write)
			return
		}
		for i := range n {
			write(j, i)
		}
	}
	j.Object()
	j.Key("before").Int(1)
	j.Key("items").Array()
	elements()
	j.EndArray()
	j.Key("nested").Array()
	j.Array()
	elements()
	j.EndArray()
	j.EndArray()
	j.EndObject()
	return j.aux != nil, j.Close()
}

// TestElementsWritesTheLoopsBytes: Elements writes exactly the bytes
// of the plain loop, compact and indented, at GOMAXPROCS 1 and 2, for
// arrays below, at and past a chunk, and long enough for the helper —
// which takes part in those at GOMAXPROCS 2, and never at 1 or in
// arrays too short to probe.
func TestElementsWritesTheLoopsBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, jsonChunk - 1, jsonChunk, jsonChunk + 1, 4*jsonChunk + 3, 9*jsonChunk + 5} {
			for _, indent := range []bool{false, true} {
				for name, write := range elementWriters {
					what := fmt.Sprintf("GOMAXPROCS %d, %d %s elements, indent %v", procs, n, name, indent)
					var want, got bytes.Buffer
					if _, err := elementsDoc(&want, indent, n, write, false); err != nil {
						t.Fatalf("%s: loop: %v", what, err)
					}
					helped, err := elementsDoc(&got, indent, n, write, true)
					if err != nil {
						t.Fatalf("%s: Elements: %v", what, err)
					}
					if procs == 1 || n < jsonMinChunks*jsonProbe {
						if helped {
							t.Errorf("%s: the helper took part", what)
						}
					} else if n >= jsonMinChunks*jsonChunk && !helped {
						t.Errorf("%s: the helper took no part", what)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("%s: Elements wrote %d bytes, the loop %d; first difference at byte %d",
							what, got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
					}
					if !json.Valid(got.Bytes()) {
						t.Errorf("%s: not valid JSON", what)
					}
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// settleGoroutines waits until no more than want goroutines run and
// returns how many do: a helper that has signalled its end may still be
// on its way out.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestElementsFailsCleanly: with the helper taking part, a writer that
// fails after k bytes, for k swept over the document, makes Close
// return its error; of two unencodable floats, in the caller's and the
// helper's chunks, the first in the document is the error reported;
// a panic in write, on either goroutine, reaches the caller. None of
// it deadlocks, and no helper outlives its Elements call.
func TestElementsFailsCleanly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	const n = 4*jsonChunk + 3
	write := elementWriters["nested"]
	var whole bytes.Buffer
	if helped, err := elementsDoc(&whole, true, n, write, true); err != nil || !helped {
		t.Fatalf("whole document: error %v, helper took part: %v", err, helped)
	}
	errFull := errors.New("full")
	for k := 0; k < whole.Len(); k += 1 + k/3 {
		left := k
		w := writerFunc(func(p []byte) (int, error) {
			if len(p) > left {
				n := left
				left = 0
				return n, errFull
			}
			left -= len(p)
			return len(p), nil
		})
		if _, err := elementsDoc(w, true, n, write, true); !errors.Is(err, errFull) {
			t.Fatalf("writer failing after %d of %d bytes: Close returned %v", k, whole.Len(), err)
		}
	}
	if got := settleGoroutines(base); got > base {
		t.Errorf("%d goroutines after the failed writes, %d before", got, base)
	}

	for _, tc := range []struct {
		first, second int     // elements writing an unencodable float
		v             float64 // the first one's; the second writes -Inf
		want          string
	}{
		{jsonChunk + 1, 2*jsonChunk + 1, math.NaN(), "NaN"}, // the helper's chunk, then the caller's
		{1, jsonChunk + 1, math.Inf(1), "+Inf"},             // the caller's chunk, then the helper's
	} {
		bad := func(w *JSONWriter, i int) {
			switch i {
			case tc.first:
				w.Float(tc.v)
			case tc.second:
				w.Float(math.Inf(-1))
			default:
				write(w, i)
			}
		}
		_, err := elementsDoc(io.Discard, false, n, bad, true)
		if err == nil || !strings.HasSuffix(err.Error(), " "+tc.want) {
			t.Errorf("floats at elements %d and %d: Close returned %v, want the error about %s", tc.first, tc.second, err, tc.want)
		}
	}

	for _, at := range []int{jsonChunk + 1, 2*jsonChunk + 1, n - 1} {
		func() {
			defer func() {
				if r := recover(); r != at {
					t.Errorf("write panicking at element %d: Elements panicked with %v", at, r)
				}
			}()
			elementsDoc(io.Discard, false, n, func(w *JSONWriter, i int) {
				if i == at {
					panic(at)
				}
				write(w, i)
			}, true)
		}()
	}
	if got := settleGoroutines(base); got > base {
		t.Errorf("%d goroutines after the panics, %d before", got, base)
	}
}
