package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"torch2chip/internal/serve"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
}

// phaseOut is what one timed phase produced.
type phaseOut struct {
	rs     []result        // predicts: the latency distribution
	other  []result        // other operations (hot reloads)
	start  time.Time       // phase start
	lag    []time.Duration // open loop: generator lateness per arrival
	closed bool            // closed loop (no schedule, no lag)
}

// traffic runs a workload's traffic against a set-up stack. phase runs
// one timed phase and may be called twice (untraced, then traced);
// inputs never repeat across the two.
type traffic interface {
	phase(dur time.Duration) phaseOut
	// checked reports how many responses were compared with the oracle
	// and whether the checked set covered every model and version.
	checked() (n int, covered bool)
	close()
}

// workload is one named traffic mix.
type workload struct {
	name    string
	why     string
	tailPct int // percentile latency_tail_ms reports
	// tailWindows, when non-zero, makes latency_tail_ms the median of
	// the tails of that many equal windows of the run (windowedTail).
	tailWindows int
	reps        int // set-up repetitions (setup_s is their median)
	http        bool
	specs       []modelSpec // compiled at set-up
	nServed     int         // the first nServed specs are uploaded at set-up
	start       func(cfg runConfig, st *stack, models []*compiled) (traffic, error)
}

var workloads = []workload{
	{
		name:    "offline-resnet20",
		why:     "closed loop (0-8 ms think), HTTP, 2 conns of 8-sample never-repeating requests to dense and 85%-pruned resnet20: loads executor, dense+sparse kernels, batcher; bypasses cache",
		tailPct: 95, reps: 3, http: true,
		specs: []modelSpec{specResNet20, specResNet20Mag85}, nServed: 2,
		start: startOffline,
	},
	{
		name:    "online-zipf-mobilenet",
		why:     "closed loop, HTTP, 2 conns of Zipf(1.1) single samples over 2048 payloads, one hot-reloading: loads HTTP codec, cache, registry reloads; hits bypass admission, batcher, engine",
		tailPct: 99, reps: 7, http: true,
		specs: []modelSpec{specMobileNetA, specMobileNetB}, nServed: 1,
		start: startZipf,
	},
	{
		name:    "open-vit-bursty",
		why:     "seeded open loop in process, 12-request bursts above capacity, deadline+priority mixes, never-repeating samples: loads queues, EDF batcher, transformer kernels; bypasses HTTP and cache",
		tailPct: 99, tailWindows: 5, reps: 7, http: false,
		specs: []modelSpec{specViT}, nServed: 1,
		start: startBursty,
	},
}

// summarize folds one phase of w; the tail is windowed when w says so.
func (w workload) summarize(ph phaseOut) summary {
	s := summarize(ph.rs, ph.start, w.tailPct)
	if w.tailWindows > 0 {
		s.tail, s.tailPct = windowedTail(ph.rs, w.tailPct, w.tailWindows)
	}
	return s
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sameBits reports whether got is bitwise equal to want.
func sameBits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}

// coverage counts verified responses per (model, version) key.
type coverage struct {
	mu   sync.Mutex
	seen map[string]int
}

func (c *coverage) add(key string) {
	c.mu.Lock()
	if c.seen == nil {
		c.seen = map[string]int{}
	}
	c.seen[key]++
	c.mu.Unlock()
}

// report returns the total count and whether every wanted key was seen.
func (c *coverage) report(want ...string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.seen {
		n += v
	}
	for _, k := range want {
		if c.seen[k] == 0 {
			return n, false
		}
	}
	return n, true
}

// ---- offline-resnet20 ----

// offlineBatch is the sample count of every offline request.
const offlineBatch = 8

type offline struct {
	st      *stack
	names   []string
	clients []*http.Client
	bodies  [][]byte
	// verify maps a pool request to the sample checked in it and the
	// oracle logits of that sample, per model.
	verify map[int]offlineCheck
	next   []int
	cov    coverage
	think  [][]time.Duration // per connection: pause before each request
}

type offlineCheck struct {
	sample int
	refs   [][]float32 // per connection's model
}

// startOffline builds the request pool: enough never-repeating 8-sample
// requests for both connections at twice the throughput measured when
// the benchmark was written. Past the pool the requests wrap; a wrapped
// request was sent far more than the cache's 1024 samples ago, so it
// still misses.
func startOffline(cfg runConfig, st *stack, models []*compiled) (traffic, error) {
	pool := int(math.Ceil(cfg.dur.Seconds() * 24))
	if pool < 48 {
		pool = 48
	}
	rp := rngFor(cfg.seed, streamPayload)
	rv := rngFor(cfg.seed, streamVerify)
	checkSet := map[int]bool{}
	for _, i := range pickSubset(rv, 32, 12) {
		checkSet[i] = true
	}
	o := &offline{st: st, verify: map[int]offlineCheck{}, next: make([]int, len(models))}
	// Connection 0 is the set-up connection, so the run holds no more
	// connections than it drives.
	o.clients = []*http.Client{st.client, newClient()}
	for c, m := range models {
		o.names = append(o.names, m.spec.name)
		o.think = append(o.think, thinkTimes(rngFor(cfg.seed, streamOrder+10*c)))
	}
	for i := 0; i < pool; i++ {
		data := genSamples(rp, offlineBatch)
		o.bodies = append(o.bodies, encodeBody(data, offlineBatch))
		if checkSet[i] {
			ck := offlineCheck{sample: rv.Intn(offlineBatch)}
			for _, m := range models {
				ck.refs = append(ck.refs, m.oracle.Forward(sampleTensor(data, ck.sample)).Data)
			}
			o.verify[i] = ck
		}
	}
	return o, nil
}

func (o *offline) phase(dur time.Duration) phaseOut {
	start := time.Now()
	rs, next := runClosed(len(o.names), dur, o.next, o.op)
	o.next = next
	return phaseOut{rs: rs, start: start, closed: true}
}

// offlineThink bounds the seeded pause a connection takes between a
// response and its next request. Without it the two closed loops lock
// into one of two phase patterns for a whole run (their batches
// alternating or overlapping on the shared cores), and throughput jumps
// by ±12% from run to run; the pause averages the two within a run.
const offlineThink = 8 * time.Millisecond

func thinkTimes(r *rand.Rand) []time.Duration {
	th := make([]time.Duration, 4096)
	for i := range th {
		th[i] = time.Duration(r.Int63n(int64(offlineThink)))
	}
	return th
}

func (o *offline) op(c, i int) result {
	time.Sleep(o.think[c][i%len(o.think[c])])
	k := i % len(o.bodies)
	ck, check := o.verify[k]
	var out *serve.PredictResponse
	if check {
		out = new(serve.PredictResponse)
	}
	t0 := time.Now()
	code, err := predictHTTP(o.clients[c], o.st.url, o.names[c], o.bodies[k], out)
	r := result{due: t0, done: time.Now(), samples: offlineBatch, fail: classifyHTTP(code, err)}
	if r.fail == "" && check {
		ok := len(out.Predictions) == offlineBatch
		if ok {
			p := out.Predictions[ck.sample]
			ok = p.Version == 1 && sameBits(p.Logits, ck.refs[c])
		}
		if !ok {
			r.fail = failMismatch
		}
		o.cov.add(o.names[c])
	}
	return r
}

func (o *offline) checked() (int, bool) { return o.cov.report(o.names...) }

func (o *offline) close() {
	for _, c := range o.clients {
		c.CloseIdleConnections()
	}
}

// ---- online-zipf-mobilenet ----

const (
	zipfPool    = 2048 // payloads: twice the default 1024-entry cache
	zipfS       = 1.1
	zipfChecked = 64  // payload ranks whose responses are verified
	reloadEvery = 250 // connection 0 hot-reloads before every 250th request
)

type zipf struct {
	st      *stack
	name    string
	ckpts   [][]byte // version v serves ckpts[(v-1)%2]
	clients []*http.Client
	bodies  [][]byte
	ranks   [][]int       // per connection: payload rank of each request
	refs    [][][]float32 // [checkpoint][rank] oracle logits, nil if unchecked
	next    []int
	reloads int      // reloads done (connection 0 only)
	other   []result // reload outcomes of the running phase (connection 0 only)
	cov     coverage
}

func startZipf(cfg runConfig, st *stack, models []*compiled) (traffic, error) {
	z := &zipf{st: st, name: models[0].spec.name, next: make([]int, 2)}
	for _, m := range models {
		z.ckpts = append(z.ckpts, m.ckpt)
		z.refs = append(z.refs, make([][]float32, zipfPool))
	}
	rp := rngFor(cfg.seed, streamPayload)
	checkSet := map[int]bool{}
	for _, i := range pickSubset(rngFor(cfg.seed, streamVerify), zipfPool, zipfChecked) {
		checkSet[i] = true
	}
	for i := 0; i < zipfPool; i++ {
		data := genSamples(rp, 1)
		z.bodies = append(z.bodies, encodeBody(data, 1))
		if checkSet[i] {
			for v, m := range models {
				z.refs[v][i] = m.oracle.Forward(sampleTensor(data, 0)).Data
			}
		}
	}
	// Connection 0 is the set-up connection, which also carries the
	// reloads (stack.upload), so the run holds two connections.
	z.clients = []*http.Client{st.client, newClient()}
	for c := 0; c < 2; c++ {
		z.ranks = append(z.ranks, zipfRanks(rngFor(cfg.seed, streamOrder+10*c), zipfS, zipfPool, 1<<16))
	}
	return z, nil
}

func (z *zipf) phase(dur time.Duration) phaseOut {
	start := time.Now()
	z.other = nil
	rs, next := runClosed(2, dur, z.next, z.op)
	z.next = next
	return phaseOut{rs: rs, other: z.other, start: start, closed: true}
}

func (z *zipf) op(c, i int) result {
	if c == 0 && i > 0 && i%reloadEvery == 0 {
		z.reload()
	}
	rank := z.ranks[c][i%len(z.ranks[c])]
	check := z.refs[0][rank] != nil
	var out *serve.PredictResponse
	if check {
		out = new(serve.PredictResponse)
	}
	t0 := time.Now()
	code, err := predictHTTP(z.clients[c], z.st.url, z.name, z.bodies[rank], out)
	r := result{due: t0, done: time.Now(), samples: 1, fail: classifyHTTP(code, err)}
	if r.fail == "" && check {
		ok := len(out.Predictions) == 1 && out.Predictions[0].Version >= 1
		if ok {
			v := (out.Predictions[0].Version - 1) % 2
			ok = sameBits(out.Predictions[0].Logits, z.refs[v][rank])
			z.cov.add(fmt.Sprint(v))
		}
		if !ok {
			r.fail = failMismatch
		}
	}
	return r
}

// reload swaps the served checkpoint for the other one. Versions are
// assigned in upload order, so the k-th reload (counting from 1)
// installs version k+1, which serves ckpts[k%2].
func (z *zipf) reload() {
	z.reloads++
	t0 := time.Now()
	v, err := z.st.upload(z.name, z.ckpts[z.reloads%2])
	r := result{due: t0, done: time.Now()}
	switch {
	case err != nil:
		r.fail = failTransport
	case v != z.reloads+1:
		r.fail = failStatus
	}
	z.other = append(z.other, r)
}

func (z *zipf) checked() (int, bool) { return z.cov.report("0", "1") }

func (z *zipf) close() {
	for _, c := range z.clients {
		c.CloseIdleConnections()
	}
}

// ---- open-vit-bursty ----

// vitShape is the open-loop arrival process: every 500 ms a burst of 12
// requests, more than one MaxBatch of 8, lands within 300 us, well
// inside the batcher's BatchWait, so the EDF queue decides which four
// wait for the second batch; the mean rate (84/s) is far below the
// engine's capacity for ViT requests on two cores (~450 samples/s).
// Landing the burst at once keeps batch formation the same however fast
// the host runs: bursts spread over 20 ms split into batches whose sizes
// followed the host's speed, and the tail moved two to three times as
// much as the median from run to run on a shared host.
var vitShape = burstShape{
	period: 500 * time.Millisecond, burstLen: 300 * time.Microsecond,
	burstN: 12, baseN: 30, // a 12-request burst, ~62/s between
	tightFrac: 0.3, tight: 100 * time.Millisecond, loose: 300 * time.Millisecond,
	highFrac: 0.2, lowFrac: 0.2,
}

type bursty struct {
	st    *stack
	name  string
	sched []arrival
	data  []float32 // one never-repeating sample per arrival
	refs  map[int][]float32
	off   time.Duration // schedule offset of the next phase
	first int           // first arrival of the next phase
	cov   coverage
}

func startBursty(cfg runConfig, st *stack, models []*compiled) (traffic, error) {
	b := &bursty{st: st, name: models[0].spec.name, refs: map[int][]float32{}}
	b.sched = vitShape.schedule(rngFor(cfg.seed, streamSchedule), cfg.dur)
	b.data = genSamples(rngFor(cfg.seed, streamPayload), len(b.sched))
	rv := rngFor(cfg.seed, streamVerify)
	for _, i := range pickSubset(rv, len(b.sched), len(b.sched)/16) {
		b.refs[i] = models[0].oracle.Forward(sampleTensor(b.data, i)).Data
	}
	return b, nil
}

// phase runs the arrivals due in the next dur of the schedule.
func (b *bursty) phase(dur time.Duration) phaseOut {
	end := b.first
	for end < len(b.sched) && b.sched[end].at < b.off+dur {
		end++
	}
	part := make([]arrival, end-b.first)
	for i := range part {
		part[i] = b.sched[b.first+i]
		part[i].at -= b.off
	}
	first := b.first
	rs, lag, start := runOpen(part, func(i int, due time.Time) result {
		return b.send(first+i, due)
	}, nil)
	b.first, b.off = end, b.off+dur
	return phaseOut{rs: rs, start: start, lag: lag}
}

func (b *bursty) send(i int, due time.Time) result {
	a := b.sched[i]
	deadline := due.Add(a.budget)
	res, err := b.st.reg.Predict(b.name, sampleTensor(b.data, i), deadline, a.class, 0)
	r := result{due: due, done: time.Now(), deadline: deadline, samples: 1, fail: classifyErr(err)}
	if ref, check := b.refs[i]; check && r.fail == "" {
		if res.Version != 1 || !sameBits(res.Y.Data, ref) {
			r.fail = failMismatch
		}
		b.cov.add(b.name)
	}
	return r
}

func (b *bursty) checked() (int, bool) { return b.cov.report(b.name) }

func (b *bursty) close() {}
