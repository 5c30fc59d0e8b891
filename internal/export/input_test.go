package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"torch2chip/internal/tensor"
)

// referenceReadInput is the predict-body decoder ReadInputJSON must
// match: encoding/json's streaming decode followed by the shape/count
// validation, restated here so the scanner is checked against it
// rather than against itself.
func referenceReadInput(body []byte) (*InputTensor, error) {
	var t InputTensor
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&t); err != nil {
		return nil, err
	}
	n := 1
	for _, s := range t.Shape {
		if s <= 0 || n > math.MaxInt/s {
			return nil, fmt.Errorf("export: bad input shape %v", t.Shape)
		}
		n *= s
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("export: input shape %v does not match %d values", t.Shape, len(t.Data))
	}
	return &t, nil
}

// canonicalBody renders n random values in the form serve.PredictBody
// and perfbench send: {"shape":[...],"data":[...]} with shortest
// float32 formatting.
func canonicalBody(tb testing.TB, seed int64, shape ...int) []byte {
	tb.Helper()
	x := tensor.NewRNG(seed).Uniform(-2, 2, shape...)
	b, err := json.Marshal(InputTensor{Shape: shape, Data: x.Data})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// Bodies the scanner decodes itself.
var scannedBodies = []string{
	`{"shape":[2],"data":[1,-2.5]}`,
	`{"data":[0.25,3e-2,-0],"shape":[3]}`,
	" \t\r\n{ \"shape\" : [ 1 , 2 ] ,\n\"data\" : [ 1E+2 , -0.0 ] } ",
	`{"shape":[],"data":[7]}`,
	`{"shape":[1],"data":[1e-50]}`,
	`{"shape":[1],"data":[3.4028235e38]}`,
	`{"shape":[2],"data":[1,2]}trailing bytes`,
	`{"shape":[2],"data":[1,2]}{"shape":[1]`,
	`{"shape":[0],"data":[]}`,
	`{"shape":[-1],"data":[5]}`,
	`{"shape":[3],"data":[1,2]}`,
	`{"shape":[4294967296,4294967296],"data":[]}`,
	`{"data":[   1],"shape":[1]}`,
}

// Bodies outside the canonical grammar, which go to encoding/json.
var fallbackBodies = []string{
	``,
	`   `,
	`null`,
	`[1.0]`,
	`{}`,
	`{"shape":[1]}`,
	`{"Shape":[1],"data":[1]}`,
	`{"shape":[1],"DATA":[1]}`,
	`{"sh\u0061pe":[1],"data":[1]}`,
	`{"shape":[1],"data":[1],"extra":0}`,
	`{"shape":[1],"shape":[1],"data":[1]}`,
	`{"shape":[1],"data":[1],"data":[2]}`,
	`{"shape":null,"data":[1]}`,
	`{"shape":[1],"data":null}`,
	`{"shape":[1],"data":[null]}`,
	`{"shape":[1.0],"data":[1]}`,
	`{"shape":[1e0],"data":[1]}`,
	`{"shape":[01],"data":[1]}`,
	`{"shape":[9223372036854775808],"data":[1]}`,
	`{"shape":[1],"data":[1.]}`,
	`{"shape":[1],"data":[+1]}`,
	`{"shape":[1],"data":[.5]}`,
	`{"shape":[1],"data":[1e400]}`,
	`{"shape":[1],"data":[-1e39]}`,
	`{"shape":[1],"data":[NaN]}`,
	`{"shape":[1],"data":[Infinity]}`,
	`{"shape":[1],"data":[0x10]}`,
	`{"shape":[1],"data":["1"]}`,
	`{"shape":[1],"data":[1,]}`,
	`{"shape":[2],"data":[1 2]}`,
	`{"shape":[1],"data":[1]`,
	`{"shape":[1],"data":[1`,
	`{"shape":[1],"da`,
	`{"shape":[1],"data":[1]],`,
	`{"shape":[1];"data":[1]}`,
	"{\"shape\":[1],\"data\":[\v1]}",
}

func checkSameAsReference(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := ReadInputJSON(bytes.NewReader(body))
	want, wantErr := referenceReadInput(body)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q: error %v, encoding/json %v", body, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: error %q, encoding/json %q", body, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got.Shape, want.Shape):
		t.Fatalf("%q: shape %#v, encoding/json %#v", body, got.Shape, want.Shape)
	case len(got.Data) != len(want.Data):
		t.Fatalf("%q: %d values, encoding/json %d", body, len(got.Data), len(want.Data))
	default:
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%q: data[%d] = %v, encoding/json %v", body, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// FuzzReadInputJSON checks ReadInputJSON against encoding/json on
// arbitrary bytes: the same accept/reject result and error text, and
// bit-identical shapes and values.
func FuzzReadInputJSON(f *testing.F) {
	for _, b := range append(append([]string(nil), scannedBodies...), fallbackBodies...) {
		f.Add([]byte(b))
	}
	f.Add(canonicalBody(f, 1, 2, 3))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSameAsReference(t, body)
		// ReadInputJSON's buffer always has spare capacity past the
		// body; scan once more with none, so a read past the end panics.
		scanInput(body[:len(body):len(body)])
	})
}

// TestScanInputTakesCanonicalBodies pins which bodies the fast path
// decodes, so the fuzz target exercises the scanner and not only the
// fallback.
func TestScanInputTakesCanonicalBodies(t *testing.T) {
	scanned := append([]string{string(canonicalBody(t, 2, 3, 32, 32))}, scannedBodies...)
	for _, b := range scanned {
		if _, ok := scanInput([]byte(b)); !ok {
			t.Errorf("scanner declined canonical body %.60q", b)
		}
		checkSameAsReference(t, []byte(b))
	}
	for _, b := range fallbackBodies {
		if _, ok := scanInput([]byte(b)); ok {
			t.Errorf("scanner took non-canonical body %q", b)
		}
		checkSameAsReference(t, []byte(b))
	}
}

// TestScanInputCountsOnlyTheArray: the comma count that sizes an array
// covers exactly the bytes up to its ']', whatever whitespace follows
// the '['. It never reads past the body, so neither a slice with no
// spare capacity nor stale bytes left in a pooled buffer change it.
func TestScanInputCountsOnlyTheArray(t *testing.T) {
	ws := strings.Repeat(" \n", 1024)
	bodies := []string{
		`{"shape":[1],"data":[   1]}`,
		`{"data":[   1],"shape":[1]}`,
		`{"shape":[` + ws + `2],"data":[` + ws + `1,` + ws + `2` + ws + `]}`,
	}
	for _, body := range bodies {
		b := []byte(body)
		if _, ok := scanInput(b[:len(b):len(b)]); !ok {
			t.Errorf("scanner declined %.40q", body)
		}
	}
	// Truncated after the whitespace: declined, without a panic.
	for _, body := range []string{`{"shape":[1],"data":[   1]`, `{"shape":[` + ws} {
		b := []byte(body)
		if _, ok := scanInput(b[:len(b):len(b)]); ok {
			t.Errorf("scanner took truncated body %.40q", body)
		}
	}
	// Leave commas in the pooled buffer, then decode through it.
	if _, err := ReadInputJSON(bytes.NewReader(canonicalBody(t, 6, 3, 32, 32))); err != nil {
		t.Fatal(err)
	}
	for _, body := range bodies {
		checkSameAsReference(t, []byte(body))
	}
}

// TestReadInputJSONReturnsReadErrors: a failing reader's error comes
// back unwrapped even when the bytes read so far hold a whole body.
func TestReadInputJSONReturnsReadErrors(t *testing.T) {
	errTooLarge := errors.New("body too large")
	r := io.MultiReader(strings.NewReader(`{"shape":[1],"data":[1]}`), iotest.ErrReader(errTooLarge))
	if _, err := ReadInputJSON(r); err != errTooLarge {
		t.Fatalf("error %v, want %v", err, errTooLarge)
	}
}

// TestSamplesSubSliceWithoutSharedTail: samples view the decoded data
// in place, each capped at its own length so an append reallocates
// instead of overwriting the next sample.
func TestSamplesSubSliceWithoutSharedTail(t *testing.T) {
	in, err := ReadInputJSON(bytes.NewReader(canonicalBody(t, 3, 3, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]float32(nil), in.Data...)
	xs, err := in.Samples([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 3 {
		t.Fatalf("%d samples, want 3", len(xs))
	}
	for i, x := range xs {
		if !reflect.DeepEqual(x.Shape, []int{1, 2, 2}) {
			t.Fatalf("sample %d shape %v, want [1 2 2]", i, x.Shape)
		}
		if len(x.Data) != 4 || cap(x.Data) != 4 {
			t.Fatalf("sample %d len %d cap %d, want 4 and 4", i, len(x.Data), cap(x.Data))
		}
		if &x.Data[0] != &in.Data[4*i] {
			t.Fatalf("sample %d was copied, want a view of the decoded data", i)
		}
	}
	grown := append(xs[0].Data, 99)
	grown[0] = 42
	if !reflect.DeepEqual(in.Data, orig) || xs[1].Data[0] != orig[4] {
		t.Fatal("appending to sample 0 wrote into the decoded data")
	}

	// The bare sample shape is one sample over the whole payload.
	one, err := in.Samples([]int{3, 2, 2})
	if err != nil || len(one) != 1 || len(one[0].Data) != 12 || cap(one[0].Data) != 12 {
		t.Fatalf("single-sample split: %v", err)
	}
	if _, err := in.Samples([]int{2, 2, 3}); err == nil {
		t.Fatal("transposed layout accepted")
	}
}

// readInputAllocBound is the most heap allocations one canonical
// 3072-value decode may make: the InputTensor, its Shape and its Data.
// The body buffer comes from the pool and number strings stay on the
// stack, so anything above this is a regression.
const readInputAllocBound = 3

func TestReadInputJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	body := canonicalBody(t, 4, 3, 32, 32)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if _, err := ReadInputJSON(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > readInputAllocBound {
		t.Fatalf("ReadInputJSON made %.0f allocations on a 3072-value body, bound %d", allocs, readInputAllocBound)
	}
}

func BenchmarkReadInputJSON(b *testing.B) {
	body := canonicalBody(b, 5, 3, 32, 32)
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, err := ReadInputJSON(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckpointTensorRejectsMismatchedShape: a checkpoint tensor whose
// data does not fill its shape is an error, not a panic.
func TestCheckpointTensorRejectsMismatchedShape(t *testing.T) {
	ck, err := ReadJSON(strings.NewReader(`{"format":"torch2chip-int-v1","tensors":{
		"empty":{},
		"short":{"shape":[2,2],"data":[1,2,3]},
		"negative":{"shape":[-1,-1],"data":[1]},
		"overflow":{"shape":[4294967296,4294967296],"data":[]},
		"ok":{"shape":[2],"data":[1,2]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"empty", "short", "negative", "overflow"} {
		if _, err := ck.Tensor(name); err == nil {
			t.Errorf("tensor %q: mismatched shape accepted", name)
		}
	}
	if x, err := ck.Tensor("ok"); err != nil || !reflect.DeepEqual(x.Data, []int64{1, 2}) {
		t.Fatalf("well-formed tensor: %v %v", x, err)
	}
}
