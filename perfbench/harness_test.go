package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/serve"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSummarizeFallsBackToSupportedTail(t *testing.T) {
	start := time.Now()
	var rs []result
	for i := 1; i <= 150; i++ {
		rs = append(rs, result{due: start, done: start.Add(time.Duration(i) * time.Millisecond), samples: 1})
	}
	s := summarize(rs, start, 99)
	if s.tailPct != 90 {
		t.Fatalf("150 samples: tail percentile %d, want 90", s.tailPct)
	}
	if s.tail != 135*time.Millisecond || s.p50 != 75*time.Millisecond {
		t.Fatalf("p50 %v tail %v, want 75ms and 135ms", s.p50, s.tail)
	}
	rs = append(rs, rs...)
	rs = append(rs, rs...)
	rs = append(rs, rs...)
	if s := summarize(rs, start, 99); s.tailPct != 99 {
		t.Fatalf("%d samples: tail percentile %d, want 99", len(rs), s.tailPct)
	}
}

func TestWindowedTailIgnoresOneSlowWindow(t *testing.T) {
	start := time.Now()
	var rs []result
	for w := 0; w < 5; w++ {
		for i := 1; i <= 200; i++ {
			lat := time.Duration(i) * time.Millisecond
			if w == 3 {
				lat *= 10 // a stalled stretch of the run
			}
			due := start.Add(time.Duration(w*200+i) * time.Millisecond)
			rs = append(rs, result{due: due, done: due.Add(lat), samples: 1})
		}
	}
	// Out of due order, as a closed loop's per-client results are.
	rs[0], rs[len(rs)-1] = rs[len(rs)-1], rs[0]
	tail, pct := windowedTail(rs, 99, 5)
	if pct != 95 || tail != 190*time.Millisecond {
		t.Fatalf("windowed tail p%d = %v, want p95 = 190ms", pct, tail)
	}
	if s := summarize(rs, start, 99); s.tail <= tail {
		t.Fatalf("pooled p%d %v should exceed the windowed %v", s.tailPct, s.tail, tail)
	}
}

func TestOpenLoopCountsFromDueUnderStall(t *testing.T) {
	const n, gap, stall, stallAt = 20, 2 * time.Millisecond, 60 * time.Millisecond, 5
	sched := make([]arrival, n)
	for i := range sched {
		sched[i] = arrival{at: time.Duration(i) * gap}
	}
	rs, lag, start := runOpen(sched, func(i int, due time.Time) result {
		return result{due: due, done: time.Now(), samples: 1}
	}, func(i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	})
	if len(rs) != n {
		t.Fatalf("%d results for %d arrivals", len(rs), n)
	}
	for i, r := range rs {
		if r.done.IsZero() {
			t.Fatalf("arrival %d was dropped", i)
		}
		if want := start.Add(sched[i].at); !r.due.Equal(want) {
			t.Fatalf("arrival %d timed from %v, want its due time %v", i, r.due.Sub(start), sched[i].at)
		}
	}
	// Arrivals due during the stall are sent late; their latency and lag
	// both carry the wait the stall imposed.
	for i := stallAt; i < stallAt+5; i++ {
		behind := stall - time.Duration(i-stallAt)*gap
		if lat := rs[i].done.Sub(rs[i].due); lat < behind-5*time.Millisecond {
			t.Errorf("arrival %d latency %v hides the stall (≥ %v expected)", i, lat, behind)
		}
		if lag[i] < behind-5*time.Millisecond {
			t.Errorf("arrival %d lag %v, want about %v", i, lag[i], behind)
		}
	}
	if p := lagP99(lag); p <= maxLagP99 {
		t.Errorf("a %v stall left lag p99 at %v: the run would not be flagged invalid", stall, p)
	}
}

func TestFailuresAreClassified(t *testing.T) {
	for _, c := range []struct {
		status int
		err    error
		want   string
	}{
		{200, nil, ""},
		{429, nil, failRejected},
		{504, nil, failExpired},
		{500, nil, failServer},
		{503, nil, failServer},
		{400, nil, failStatus},
		{404, nil, failStatus},
		{0, errors.New("connection reset"), failTransport},
		{200, errors.New("truncated body"), failTransport},
	} {
		if got := classifyHTTP(c.status, c.err); got != c.want {
			t.Errorf("classifyHTTP(%d, %v) = %q, want %q", c.status, c.err, got, c.want)
		}
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{serve.ErrOverloaded, failRejected},
		{fmt.Errorf("replica: %w", engine.ErrQueueFull), failRejected},
		{fmt.Errorf("wait: %w", engine.ErrDeadlineExceeded), failExpired},
		{errors.New("kernel fault"), failServer},
	} {
		if got := classifyErr(c.err); got != c.want {
			t.Errorf("classifyErr(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	// Every failure class, mismatches included, counts as failed, adds
	// no samples and misses the SLO.
	now := time.Now()
	var rs []result
	for _, f := range []string{failTransport, failRejected, failExpired, failServer, failStatus, failMismatch, ""} {
		rs = append(rs, result{due: now, done: now.Add(time.Millisecond), samples: 8, fail: f})
	}
	s := summarize(rs, now, 99)
	if s.failed != 6 || s.okSamples != 8 || s.sloMet != 1 || s.failures[failMismatch] != 1 {
		t.Fatalf("summary %+v: want 6 failed, 8 ok samples, 1 within SLO, 1 mismatch", s)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) ([]byte, []int, []arrival, []int) {
		body := encodeBody(genSamples(rngFor(seed, streamPayload), 2), 2)
		ranks := zipfRanks(rngFor(seed, streamOrder), zipfS, zipfPool, 1000)
		sched := vitShape.schedule(rngFor(seed, streamSchedule), 3*time.Second)
		sub := pickSubset(rngFor(seed, streamVerify), 500, 20)
		return body, ranks, sched, sub
	}
	b1, r1, s1, v1 := gen(7)
	b2, r2, s2, v2 := gen(7)
	if !bytes.Equal(b1, b2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("the same seed produced different payloads, orders, schedules or checked subsets")
	}
	b3, r3, s3, v3 := gen(8)
	if bytes.Equal(b1, b3) || reflect.DeepEqual(r1, r3) || reflect.DeepEqual(s1, s3) || reflect.DeepEqual(v1, v3) {
		t.Fatal("a different seed reproduced the same inputs")
	}
	if want := (vitShape.burstN + vitShape.baseN) * int(3*time.Second/vitShape.period); len(s1) != want {
		t.Fatalf("3 s schedule has %d arrivals, want %d", len(s1), want)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].at < s1[i-1].at {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
}

func TestBodyDecodesToTheOracleInput(t *testing.T) {
	data := genSamples(rngFor(3, streamPayload), 2)
	in, err := export.ReadInputJSON(bytes.NewReader(encodeBody(data, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Shape, []int{2, 3, imgSize, imgSize}) || !sameBits(in.Data, data) {
		t.Fatal("the server would decode a different tensor than the oracle is given")
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {2, 4}, {8, 12}, {20, 21}}
	if got := unionLen(iv); got != 4+7+1 {
		t.Fatalf("unionLen = %d, want 12", got)
	}
}

// TestTablesMatchBenchmarkJSON keeps BENCHMARK.json and the metric and
// workload tables the program reports from in step.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		j := bj.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, j, m)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayerMetrics))
	}
	known := map[string]bool{"all": true}
	for _, m := range endToEndMetrics {
		known[m.name] = true
	}
	for _, w := range workloads {
		known[w.name] = true
	}
	for i, m := range perLayerMetrics {
		if !strings.HasPrefix(m.moves, "none") {
			for _, word := range strings.FieldsFunc(m.moves, func(r rune) bool { return r == ' ' || r == ';' }) {
				if strings.ContainsAny(word, "_-") && !known[word] {
					t.Errorf("%s predicts a move of unknown metric or workload %q", m.name, word)
				}
			}
		}
		j := bj.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, j, m)
		}
	}
}

// TestShortRunIsCorrect runs the in-process workload briefly, traced
// and untraced, and checks it reports every metric of its kind and
// passes the oracle check.
func TestShortRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a model and serves for two seconds")
	}
	w, _ := findWorkload("open-vit-bursty")
	w.reps = 1
	for _, traced := range []bool{false, true} {
		rep, err := execute(w, runConfig{seed: 5, dur: time.Second, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		r := rep.result
		if !r.Correct || r.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v attempted=%d", traced, r.Correct, r.Attempted)
		}
		want := len(endToEndMetrics)
		if traced {
			want = len(perLayerMetrics)
		}
		if len(r.Metrics) != want {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(r.Metrics), want)
		}
		for name, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("traced=%v: %s = %v", traced, name, m.Value)
			}
		}
	}
}
