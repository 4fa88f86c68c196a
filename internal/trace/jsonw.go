package trace

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"unicode/utf8"
)

// JSONWriter is the append-based encoder the observers' exporters
// share. It writes the bytes encoding/json would — Encoder.Encode's
// compact form or MarshalIndent(v, "", "  ") — for the shapes the
// exports use (objects with fixed keys, arrays, strings, integers,
// floats, booleans, null), without reflection and without holding the
// document: values are appended to one buffer that drains to the
// underlying writer whenever a container closes on a full buffer. The
// first write error sticks; Close reports it. Readers keep
// encoding/json, and the export tests compare the two byte for byte.
// Elements encodes a long array on two goroutines.
type JSONWriter struct {
	w       io.Writer // nil on Elements' helper writer, which never drains
	buf     []byte
	drained int // bytes drained from buf so far: what Elements sizes its chunks by
	err     error
	indent  bool
	depth   int
	first   bool   // nothing written yet inside the innermost open container
	keyed   bool   // a key was just written: the next value follows it inline
	scratch []byte // text an exporter assembles before writing it (StringBytes)

	// Elements' helper writer and the two chunk buffers it encodes
	// into, kept for the writer's next long array.
	aux    *JSONWriter
	chunks [2][]byte
}

// jsonFlushAt is the buffer fill at which a closing container drains
// it: large enough that a write is rare, small enough to stay cached.
const jsonFlushAt = 32 << 10

// NewJSONWriter returns a writer onto w: compact, or indented by two
// spaces a level.
func NewJSONWriter(w io.Writer, indent bool) *JSONWriter {
	return &JSONWriter{w: w, buf: make([]byte, 0, jsonFlushAt+4<<10), indent: indent, first: true}
}

// sep writes what separates a value or key from what came before: a
// comma after a sibling, and in indented form a new line at the
// current depth.
func (j *JSONWriter) sep() {
	if j.keyed {
		j.keyed = false
		return
	}
	if !j.first {
		j.buf = append(j.buf, ',')
	}
	j.first = false
	if j.indent && j.depth > 0 {
		j.newline()
	}
}

// jsonIndent is the indentation of up to 32 levels, appended in one
// slice.
const jsonIndent = "                                                                "

func (j *JSONWriter) newline() {
	j.buf = append(j.buf, '\n')
	for n := 2 * j.depth; n > 0; n -= len(jsonIndent) {
		j.buf = append(j.buf, jsonIndent[:min(n, len(jsonIndent))]...)
	}
}

func (j *JSONWriter) open(c byte) {
	j.sep()
	j.buf = append(j.buf, c)
	j.depth++
	j.first = true
}

func (j *JSONWriter) close(c byte) {
	j.depth--
	if j.indent && !j.first {
		j.newline()
	}
	j.buf = append(j.buf, c)
	j.first = false
	if len(j.buf) >= jsonFlushAt && j.w != nil {
		j.flush()
	}
}

func (j *JSONWriter) flush() {
	j.drained += len(j.buf)
	if j.err == nil {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
}

// Object and EndObject bracket an object; Array and EndArray an array.
func (j *JSONWriter) Object()    { j.open('{') }
func (j *JSONWriter) EndObject() { j.close('}') }
func (j *JSONWriter) Array()     { j.open('[') }
func (j *JSONWriter) EndArray()  { j.close(']') }

// Key writes an object key and returns j for the value that follows:
// j.Key("at").Int(at). Keys are the exporters' own literals and need no
// escaping.
func (j *JSONWriter) Key(k string) *JSONWriter {
	j.sep()
	j.buf = append(j.buf, '"')
	j.buf = append(j.buf, k...)
	if j.indent {
		j.buf = append(j.buf, '"', ':', ' ')
	} else {
		j.buf = append(j.buf, '"', ':')
	}
	j.keyed = true
	return j
}

// String writes s quoted and escaped as encoding/json does with HTML
// escaping on.
func (j *JSONWriter) String(s string) {
	j.sep()
	j.buf = AppendJSONString(j.buf, s)
}

// StringBytes is String for text assembled in a scratch buffer.
func (j *JSONWriter) StringBytes(s []byte) {
	j.sep()
	j.buf = AppendJSONString(j.buf, s)
}

// Uint writes an unsigned integer.
func (j *JSONWriter) Uint(v uint64) {
	j.sep()
	j.buf = strconv.AppendUint(j.buf, v, 10)
}

// Int writes a signed integer.
func (j *JSONWriter) Int(v int64) {
	j.sep()
	j.buf = strconv.AppendInt(j.buf, v, 10)
}

// Float writes a float64 in encoding/json's format. NaN and the
// infinities have no JSON form: they fail the document, as they fail
// encoding/json.
func (j *JSONWriter) Float(v float64) {
	j.sep()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if j.err == nil {
			j.err = fmt.Errorf("json: unsupported value: %v", v)
		}
		return
	}
	j.buf = AppendJSONFloat(j.buf, v)
}

// Bool writes true or false.
func (j *JSONWriter) Bool(v bool) {
	j.sep()
	j.buf = strconv.AppendBool(j.buf, v)
}

// Null writes null (what encoding/json makes of a nil slice or pointer).
func (j *JSONWriter) Null() {
	j.sep()
	j.buf = append(j.buf, "null"...)
}

// Elements' chunks: at most jsonChunk elements, fewer where the
// elements are large, so that a chunk is about jsonChunkBytes — long
// enough that handing it between goroutines costs little beside its
// encoding, short enough that its two buffers stay small. The first
// jsonProbe elements, encoded in place, size the chunks; an array of
// fewer than jsonMinChunks chunks is not worth a second goroutine.
const (
	jsonChunk      = 1024
	jsonChunkBytes = 256 << 10
	jsonProbe      = 64
	jsonMinChunks  = 4
)

// jsonChunkOut is one chunk Elements' helper encoded, the first error
// it met included, or what the helper panicked with.
type jsonChunkOut struct {
	buf      []byte
	err      error
	panicked any
}

// Elements writes n elements into the open array, write(w, i) writing
// the ith through w, and leaves exactly the bytes of
//
//	for i := range n {
//		write(j, i)
//	}
//
// With two processors to run them, an array of at least jsonMinChunks
// chunks is encoded on two goroutines: a helper encodes every other
// chunk into one of two buffers that the writer recycles, while the
// caller encodes the rest in place and writes each of the helper's
// chunks out after the chunk before it. So write must write only
// through w, may be called from two goroutines at once, and may write
// any number of balanced values, none included. The helper has exited
// when Elements returns, and a panic in write, on either goroutine,
// surfaces in the caller.
func (j *JSONWriter) Elements(n int, write func(w *JSONWriter, i int)) {
	if n < jsonMinChunks*jsonProbe || runtime.GOMAXPROCS(0) < 2 {
		for i := range n {
			write(j, i)
		}
		return
	}
	from := j.drained + len(j.buf)
	for i := range jsonProbe {
		write(j, i)
	}
	per := max(1, (j.drained+len(j.buf)-from)/jsonProbe)
	size := min(max(jsonChunkBytes/per, jsonProbe), jsonChunk)
	chunks := (n + size - 1) / size
	if chunks < jsonMinChunks {
		for i := jsonProbe; i < n; i++ {
			write(j, i)
		}
		return
	}
	// The helper's writer takes j's state now and never reads j: it
	// encodes each chunk as if a sibling came before it, and splice
	// drops the comma that leads a chunk no sibling came before.
	if j.aux == nil {
		j.aux = &JSONWriter{}
		for i := range j.chunks {
			j.chunks[i] = make([]byte, 0, jsonChunkBytes+jsonChunkBytes/2)
		}
	}
	h := j.aux
	h.indent, h.depth = j.indent, j.depth
	// A chunk waits in done only while its buffer is out of free, so
	// done has room for the panic too.
	free := make(chan []byte, len(j.chunks))
	done := make(chan jsonChunkOut, len(j.chunks))
	quit, exited := make(chan struct{}), make(chan struct{})
	for _, b := range j.chunks {
		free <- b
	}
	go func() {
		defer close(exited)
		defer func() {
			if r := recover(); r != nil {
				done <- jsonChunkOut{panicked: r}
			}
		}()
		for c := 1; c < chunks; c += 2 {
			var buf []byte
			select {
			case buf = <-free:
			case <-quit:
				return
			}
			h.buf, h.first, h.err = buf[:0], false, nil
			for i := c * size; i < min(n, (c+1)*size); i++ {
				write(h, i)
			}
			done <- jsonChunkOut{buf: h.buf, err: h.err}
		}
	}()
	defer func() {
		close(quit)
		<-exited
	}()
	for c := 0; c < chunks; c++ {
		if c%2 == 0 {
			for i := max(c*size, jsonProbe); i < min(n, (c+1)*size); i++ {
				write(j, i)
			}
			continue
		}
		out := <-done
		if out.panicked != nil {
			panic(out.panicked)
		}
		j.splice(out)
		free <- out.buf
	}
	for i := range j.chunks {
		j.chunks[i] = <-free
	}
}

// splice writes out a chunk Elements' helper encoded, after whatever
// j holds: the chunk's first error becomes j's if j has none, and its
// leading comma goes if nothing came before it in the array.
func (j *JSONWriter) splice(c jsonChunkOut) {
	if j.err == nil {
		j.err = c.err
	}
	b := c.buf
	if len(b) == 0 {
		return
	}
	if j.first {
		b = b[1:]
	}
	j.first = false
	if len(j.buf) > 0 {
		j.flush()
	}
	if j.err == nil {
		_, j.err = j.w.Write(b)
	}
}

// Close ends the document with the newline every export ends in,
// drains the buffer and returns the first error met.
func (j *JSONWriter) Close() error {
	j.buf = append(j.buf, '\n')
	j.flush()
	return j.err
}

const jsonHex = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, byte for byte
// what encoding/json writes with HTML escaping on: `"` and `\` take a
// backslash, \b \f \n \r \t their short forms, other control bytes and
// < > & the \u00XX form, U+2028 and U+2029 are escaped, and each byte
// of invalid UTF-8 becomes the six characters \ufffd.
func AppendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode from a string of at most one rune's bytes: free for a
		// string, a copy that stays on the stack for a []byte.
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends a finite f as encoding/json formats a
// float64: the shortest decimal that round-trips, in plain notation
// except below 1e-6 and from 1e21 up, where it switches to an exponent
// written without a leading zero (1e-7, not 1e-07).
func AppendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
