package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/nn"
	"torch2chip/internal/serve"
	"torch2chip/internal/trace"
)

// traceRingSpans sizes each tracer ring of a traced run so a whole
// traced phase fits without wrapping on the workloads here.
const traceRingSpans = 1 << 17

// stack is one deployment under test: a registry with the default
// serve.Options (plus a tracer in traced runs) and, for HTTP workloads,
// the serve API on a loopback listener behind the benchmark's own
// handler timer.
type stack struct {
	reg    *serve.Registry
	srv    *http.Server
	served chan error
	url    string
	timer  *handlerTimer
	client *http.Client

	mu    sync.Mutex
	loads []time.Duration // upload/Load wall times, set-up and reloads
}

func newStack(useHTTP, traced bool) (*stack, error) {
	var opts serve.Options
	if traced {
		opts.Trace = &trace.Config{RingSpans: traceRingSpans}
	}
	s := &stack{reg: serve.NewRegistry(opts)}
	if !useHTTP {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.reg.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.timer = &handlerTimer{next: serve.NewHandler(s.reg, serve.HandlerOptions{})}
	s.srv = &http.Server{Handler: s.timer}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = newClient()
	return s, nil
}

// newClient returns a client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

// close stops the listener, waits for the server goroutine and every
// model version to drain.
func (s *stack) close() {
	if s.srv != nil {
		s.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // a timeout here leaves Close below to drain
		cancel()
		<-s.served
	}
	s.reg.Close()
}

// upload installs ckpt under name through the serve API (an HTTP POST,
// or Registry.Load for in-process workloads) and returns the version
// the registry assigned.
func (s *stack) upload(name string, ckpt []byte) (int, error) {
	t0 := time.Now()
	v, err := s.doUpload(name, ckpt)
	d := time.Since(t0)
	s.mu.Lock()
	s.loads = append(s.loads, d)
	s.mu.Unlock()
	return v, err
}

func (s *stack) doUpload(name string, ckpt []byte) (int, error) {
	if s.srv == nil {
		ck, err := export.ReadJSON(bytes.NewReader(ckpt))
		if err != nil {
			return 0, err
		}
		info, err := s.reg.Load(name, ck, nil)
		return info.Version, err
	}
	resp, err := s.client.Post(s.url+"/v1/models/"+name, "application/json", bytes.NewReader(ckpt))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var info serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, fmt.Errorf("upload %s: status %d: %w", name, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("upload %s: status %d", name, resp.StatusCode)
	}
	return info.Version, nil
}

// predictHTTP posts one predict body. The response is decoded only when
// out is non-nil; otherwise it is read and discarded.
func predictHTTP(c *http.Client, url, name string, body []byte, out *serve.PredictResponse) (int, error) {
	resp, err := c.Post(url+"/v1/models/"+name+":predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// warm sends one predict of a calibration image to name.
func (s *stack) warm(name string, img []float32) error {
	if s.srv == nil {
		_, err := s.reg.Predict(name, sampleTensor(img, 0), time.Time{}, engine.PriNormal, 0)
		return err
	}
	code, err := predictHTTP(s.client, s.url, name, encodeBody(img, 1), nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("warm-up predict %s: status %d", name, code)
	}
	return err
}

// warmBuckets drives rounds of concurrent never-seen samples into each
// named model, so the replicas bind an executor for every batch size
// before the timed phase instead of inside it.
func (s *stack) warmBuckets(names []string, r *rand.Rand) error {
	const rounds, width = 3, 16
	for _, n := range names {
		for round := 0; round < rounds; round++ {
			data := genSamples(r, width)
			errs := make(chan error, width)
			for i := 0; i < width; i++ {
				go func(i int) {
					_, err := s.reg.Predict(n, sampleTensor(data, i), time.Time{}, engine.PriNormal, 0)
					errs <- err
				}(i)
			}
			for i := 0; i < width; i++ {
				if err := <-errs; err != nil {
					return fmt.Errorf("warm %s: %w", n, err)
				}
			}
		}
	}
	return nil
}

// setTracing arms or disarms the tracers of the named models.
func (s *stack) setTracing(on bool, names []string) {
	for _, n := range names {
		s.reg.Tracer(n).SetEnabled(on)
	}
	if s.timer != nil {
		s.timer.on.Store(on)
	}
}

// handlerSpan is one predict request as seen around the serve handler.
type handlerSpan struct {
	dur     time.Duration
	bytesIn int64
	tid     uint64 // the serve layer's trace id (0 = untraced)
}

// handlerTimer wraps the serve handler and, while on, records a span
// around every predict request.
type handlerTimer struct {
	next  http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	spans []handlerSpan
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() || !strings.HasSuffix(r.URL.Path, ":predict") {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	sp := handlerSpan{dur: time.Since(t0), bytesIn: r.ContentLength}
	sp.tid, _ = strconv.ParseUint(w.Header().Get("X-Trace-Id"), 16, 64)
	h.mu.Lock()
	h.spans = append(h.spans, sp)
	h.mu.Unlock()
}

// setupStats records the set-up repetitions of one run.
type setupStats struct {
	total   []time.Duration // per repetition: the whole set-up clock
	compile []time.Duration // per repetition: Prepare+Calibrate+Compile, all models
	write   []time.Duration // per repetition: WriteJSON, all models
	models  []*compiled     // the last repetition's artifacts
}

// setUp makes specs servable reps (≥ 1) times, each time into a fresh
// stack, and returns the last stack with its models loaded. The first nServed
// specs are uploaded and warmed; the rest are only compiled (reload
// targets). The clock covers Prepare → Calibrate → Compile → WriteJSON
// → upload → one warm-up predict per served model; building the float
// models happens before it.
func setUp(specs []modelSpec, nServed, reps int, useHTTP, traced bool, calib *data.Dataset) (*stack, *setupStats, error) {
	st := &setupStats{}
	var last *stack
	for rep := 0; rep < reps; rep++ {
		if last != nil {
			last.close()
		}
		floats := make([]nn.Layer, len(specs))
		for i, s := range specs {
			floats[i] = buildFloat(s, calib)
		}
		stk, err := newStack(useHTTP, traced)
		if err != nil {
			return nil, nil, err
		}
		last = stk
		runtime.GC()
		t0 := time.Now()
		var comp, write time.Duration
		models := make([]*compiled, len(specs))
		for i, f := range floats {
			c, err := compileModel(specs[i], f, calib)
			if err != nil {
				stk.close()
				return nil, nil, err
			}
			comp += c.compile
			write += c.write
			models[i] = c
		}
		for _, c := range models[:nServed] {
			if _, err := stk.upload(c.spec.name, c.ckpt); err != nil {
				stk.close()
				return nil, nil, err
			}
			if err := stk.warm(c.spec.name, calib.Images[0].Data); err != nil {
				stk.close()
				return nil, nil, err
			}
		}
		st.total = append(st.total, time.Since(t0))
		st.compile = append(st.compile, comp)
		st.write = append(st.write, write)
		st.models = models
	}
	return last, st, nil
}
