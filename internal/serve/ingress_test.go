package serve_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
)

// TestHTTPUploadEmptyProgramDoesNotWedgeClose: a checkpoint whose
// program has no instructions is a client error, and the failed load
// must release everything it took, so Close still returns.
func TestHTTPUploadEmptyProgramDoesNotWedgeClose(t *testing.T) {
	reg := serve.NewRegistry(serve.Options{})
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()

	body := []byte(`{"format":"torch2chip-int-v1","program":{"version":2,"opt_level":1,"in_shape":[1]}}`)
	resp, b := postJSON(t, ts.URL+"/v1/models/empty", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-program upload status %d (%s), want 400", resp.StatusCode, b)
	}

	closed := make(chan struct{})
	go func() {
		reg.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Registry.Close hung after a rejected upload")
	}
}

// TestHTTPOversizedBodiesGet413: predict and upload bodies larger than
// MaxBodyBytes are answered 413, not 400.
func TestHTTPOversizedBodiesGet413(t *testing.T) {
	ck, _ := buildCheckpoint(t, 9)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	pb, err := serve.PredictBody([]int{3, 8, 8}, tensor.NewRNG(900).Uniform(0, 1, 3, 8, 8).Data)
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(pb) - 1)
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{MaxBodyBytes: limit}))
	defer ts.Close()

	resp, b := postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized predict status %d (%s), want 413", resp.StatusCode, b)
	}
	resp, b = postJSON(t, ts.URL+"/v1/models/cnn", checkpointBody(t, ck))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status %d (%s), want 413", resp.StatusCode, b)
	}

	// A body that fits still serves, and malformed ones stay 400.
	ok := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{MaxBodyBytes: int64(len(pb))}))
	defer ok.Close()
	if resp, b = postJSON(t, ok.URL+"/v1/models/cnn:predict", pb); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict at the limit status %d (%s), want 200", resp.StatusCode, b)
	}
	if resp, b = postJSON(t, ok.URL+"/v1/models/cnn:predict", bytes.Repeat([]byte("{"), 8)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed predict status %d (%s), want 400", resp.StatusCode, b)
	}
}

// TestHTTPPredictOverflowingShapeIs400: a batch dimension chosen so the
// element count wraps around int to the payload length is rejected at
// decode time instead of reaching the per-sample split.
func TestHTTPPredictOverflowingShapeIs400(t *testing.T) {
	ck, _ := buildCheckpoint(t, 10)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()

	// (2^58+1)·3·8·8 = 3·2^64 + 192 ≡ 192 (mod 2^64).
	pb, err := serve.PredictBody([]int{1<<58 + 1, 3, 8, 8}, make([]float32, 3*8*8))
	if err != nil {
		t.Fatal(err)
	}
	resp, b := postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing batch shape status %d (%s), want 400", resp.StatusCode, b)
	}
}
