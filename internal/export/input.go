package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"torch2chip/internal/tensor"
)

// InputTensor is a float tensor payload file: one serving request for
// the t2c serve subcommand (shape [C,H,W] or [1,C,H,W]).
type InputTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// WriteInputJSON serializes a float tensor as a serving input file.
func WriteInputJSON(w io.Writer, shape []int, data []float32) error {
	return json.NewEncoder(w).Encode(InputTensor{Shape: shape, Data: data})
}

// maxPooledBody caps the body buffers kept for reuse, so one huge
// request cannot pin its memory in the pool after it is served.
const maxPooledBody = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadInputJSON parses a serving input file or predict body. The body
// is read once into a pooled buffer and decoded by a single-pass
// scanner that accepts the canonical {"shape":[ints],"data":[numbers]}
// form. Anything else goes to encoding/json on the same bytes, so the
// accepted bodies, the decoded bits and the error text are exactly
// encoding/json's; as with json.Decoder, bytes after the object are
// ignored. A read error (e.g. *http.MaxBytesError) is returned as is,
// even if the bytes before it hold a whole body.
func ReadInputJSON(r io.Reader) (*InputTensor, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	t, ok := scanInput(buf.Bytes())
	if !ok {
		t = new(InputTensor)
		if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(t); err != nil {
			return nil, err
		}
	}
	n, ok := numel(t.Shape, false)
	if !ok {
		return nil, fmt.Errorf("export: bad input shape %v", t.Shape)
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("export: input shape %v does not match %d values", t.Shape, len(t.Data))
	}
	return t, nil
}

// numel returns the element count of an untrusted shape. ok is false
// if a dimension is negative, or zero when allowZero is false, or if
// the count overflows int.
func numel(shape []int, allowZero bool) (n int, ok bool) {
	n = 1
	for _, s := range shape {
		if s < 0 || (s == 0 && !allowZero) || (s > 0 && n > math.MaxInt/s) {
			return 0, false
		}
		n *= s
	}
	return n, true
}

// inputScanner walks a predict body. Every method reports failure by
// returning false (or nil), which sends the body to encoding/json.
type inputScanner struct {
	b   []byte
	pos int
}

// scanInput decodes the canonical body: an object holding exactly the
// keys "shape" and "data", once each and in either order, whose arrays
// hold only JSON numbers. Numbers are checked against the JSON grammar
// and converted with the strconv calls encoding/json makes
// (ParseFloat(s, 32), ParseInt(s, 10, IntSize)), so an accepted body
// decodes bit-identically. ok is false for any other body.
func scanInput(b []byte) (t *InputTensor, ok bool) {
	s := inputScanner{b: b}
	if !s.consume('{') {
		return nil, false
	}
	t = new(InputTensor)
	for i := 0; i < 2; i++ {
		if i > 0 && !s.consume(',') {
			return nil, false
		}
		switch {
		case t.Shape == nil && s.key("shape"):
			if t.Shape, ok = s.ints(); !ok {
				return nil, false
			}
		case t.Data == nil && s.key("data"):
			if t.Data, ok = s.floats(); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	if !s.consume('}') {
		return nil, false
	}
	return t, true
}

// skipSpace advances past JSON whitespace.
func (s *inputScanner) skipSpace() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, if it is next.
func (s *inputScanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// key consumes `"name":` (with whitespace) if the next key is exactly
// name, spelled without escapes.
func (s *inputScanner) key(name string) bool {
	s.skipSpace()
	end := s.pos + len(name) + 2
	if end > len(s.b) || s.b[s.pos] != '"' || string(s.b[s.pos+1:end-1]) != name || s.b[end-1] != '"' {
		return false
	}
	s.pos = end
	return s.consume(':')
}

// arrayLen consumes the '[' of an array of numbers and returns its
// length, counted from the commas before the first ']'. The count is
// only a size hint until elements confirms every element parses.
func (s *inputScanner) arrayLen() (int, bool) {
	if !s.consume('[') {
		return 0, false
	}
	s.skipSpace()
	end := bytes.IndexByte(s.b[s.pos:], ']')
	switch {
	case end < 0:
		return 0, false
	case end == 0:
		return 0, true
	}
	return bytes.Count(s.b[s.pos:s.pos+end], []byte{','}) + 1, true
}

// elements parses the n comma-separated numbers of an array whose '['
// arrayLen consumed, handing each to parse, and consumes the ']'.
func (s *inputScanner) elements(n int, parse func(i int, num []byte) bool) bool {
	for i := 0; i < n; i++ {
		if i > 0 && !s.consume(',') {
			return false
		}
		s.skipSpace()
		num := s.number()
		if num == nil || !parse(i, num) {
			return false
		}
	}
	return s.consume(']')
}

// ints parses an array of JSON integers as encoding/json fills an
// []int, which rejects fractions, exponents and overflow.
func (s *inputScanner) ints() ([]int, bool) {
	n, ok := s.arrayLen()
	if !ok {
		return nil, false
	}
	out := make([]int, n)
	return out, s.elements(n, func(i int, num []byte) bool {
		v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
		out[i] = int(v)
		return err == nil
	})
}

// floats parses an array of JSON numbers as encoding/json fills a
// []float32, which rejects values outside the float32 range.
func (s *inputScanner) floats() ([]float32, bool) {
	n, ok := s.arrayLen()
	if !ok {
		return nil, false
	}
	out := make([]float32, n)
	return out, s.elements(n, func(i int, num []byte) bool {
		v, err := strconv.ParseFloat(string(num), 32)
		out[i] = float32(v)
		return err == nil
	})
}

// number consumes one number in the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its
// bytes, or nil if the next bytes do not start one. strconv alone
// would also take forms JSON forbids, such as "+1", ".5", "1.",
// "0x10" and "Inf".
func (s *inputScanner) number() []byte {
	b, i := s.b, s.pos
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	num := b[s.pos:i]
	s.pos = i
	return num
}

// Samples splits a (possibly batched) input payload into per-sample
// tensors of the given sample shape. Accepted layouts are exactly
// sample (one tensor) and [N, sample...] (a batch); anything else —
// including a transposed layout with a matching element count — is
// rejected so it cannot be silently misinterpreted. Each sample views
// its own stretch of t.Data, capped so that appending to one sample
// can never write into the next.
func (t *InputTensor) Samples(sample []int) ([]*tensor.Tensor, error) {
	sh := t.Shape
	n := 1
	switch {
	case shapeEqual(sh, sample):
	case len(sh) == len(sample)+1 && shapeEqual(sh[1:], sample):
		n = sh[0]
	default:
		return nil, fmt.Errorf("export: input shape %v, want %v or [N,%v]", sh, sample, sample)
	}
	sampleN := len(t.Data) / n
	shape := append([]int{1}, sample...)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		lo, hi := i*sampleN, (i+1)*sampleN
		out[i] = tensor.FromSlice(t.Data[lo:hi:hi], shape...)
	}
	return out, nil
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
