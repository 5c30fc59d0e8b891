package main

import (
	"errors"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/serve"
)

// Failure classes. An operation fails on a transport error, on any
// non-200 status, or when a verified response is not bit-identical to
// the interpreter oracle.
const (
	failTransport = "transport"
	failRejected  = "rejected" // 429: admission or queue shed
	failExpired   = "expired"  // 504: deadline passed before execution
	failServer    = "server"   // 5xx other than 504
	failStatus    = "status"   // any other non-200 status
	failMismatch  = "mismatch" // verified logits differ from the oracle
)

// classifyHTTP maps one HTTP round trip to its failure class ("" = ok).
func classifyHTTP(status int, err error) string {
	switch {
	case err != nil:
		return failTransport
	case status == http.StatusOK:
		return ""
	case status == http.StatusTooManyRequests:
		return failRejected
	case status == http.StatusGatewayTimeout:
		return failExpired
	case status >= 500:
		return failServer
	default:
		return failStatus
	}
}

// classifyErr maps an in-process Registry.Predict error to its failure
// class, with the same classes the HTTP layer's status codes encode.
func classifyErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, engine.ErrQueueFull):
		return failRejected
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return failExpired
	default:
		return failServer
	}
}

// result is one operation's outcome. Latency runs from due: the send
// time in a closed loop, the scheduled arrival in an open loop.
type result struct {
	due      time.Time
	done     time.Time
	deadline time.Time // zero = none
	samples  int
	fail     string // "" = success, else a failure class
}

// metSLO reports whether the operation succeeded within its deadline
// (an operation without a deadline only has to succeed).
func (r result) metSLO() bool {
	return r.fail == "" && (r.deadline.IsZero() || !r.done.After(r.deadline))
}

// tailPercentile is the highest of p99, p95 and p90 that leaves at
// least ten of n samples beyond it, or 0 when even p90 does not.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if n*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of ascending values.
func quantile[T int64 | time.Duration](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is the end-to-end view of one timed phase.
type summary struct {
	attempted int
	failed    int
	okSamples int
	sloMet    int
	elapsed   time.Duration // phase start to the last completion
	p50       time.Duration
	tail      time.Duration
	tailPct   int // percentile tail reports
	failures  map[string]int
}

// summarize folds a phase's results. Latency percentiles are over the
// successful operations; failures show in slo_attainment and the
// failure counts. want is the workload's tail percentile; when too few
// operations succeeded to leave ten beyond it, the tail falls back to
// the highest percentile that does.
func summarize(rs []result, start time.Time, want int) summary {
	s := summary{attempted: len(rs), failures: map[string]int{}}
	lat := make([]time.Duration, 0, len(rs))
	end := start
	for _, r := range rs {
		if r.metSLO() {
			s.sloMet++
		}
		if r.done.After(end) {
			end = r.done
		}
		if r.fail != "" {
			s.failed++
			s.failures[r.fail]++
			continue
		}
		s.okSamples += r.samples
		lat = append(lat, r.done.Sub(r.due))
	}
	s.elapsed = end.Sub(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s.tailPct = want
	if got := tailPercentile(len(lat)); got < want {
		s.tailPct = got
	}
	s.p50 = quantile(lat, 0.50)
	if s.tailPct > 0 {
		s.tail = quantile(lat, float64(s.tailPct)/100)
	} else if len(lat) > 0 {
		s.tail = lat[len(lat)-1]
	}
	return s
}

// windowedTail splits rs, in due order, into n windows of equal count
// and returns the median of the windows' tails with the lowest
// percentile any window reports, each window's tail chosen by the same
// ten-beyond rule as a whole run's. A host stall that slows one window
// moves a pooled percentile of a bursty open loop by tens of percent;
// it moves this median little.
func windowedTail(rs []result, want, n int) (time.Duration, int) {
	s := append([]result(nil), rs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].due.Before(s[j].due) })
	tails := make([]time.Duration, n)
	pct := want
	for w := range tails {
		part := s[w*len(s)/n : (w+1)*len(s)/n]
		if len(part) == 0 {
			continue
		}
		sw := summarize(part, part[0].due, want)
		tails[w] = sw.tail
		pct = min(pct, sw.tailPct)
	}
	return medianDur(tails), pct
}

// runClosed drives clients closed-loop clients for dur: each sends its
// next operation only once the previous one has completed. op(c, i)
// performs client c's i-th operation (numbered from first, so a later
// phase continues where an earlier one stopped) and returns its result.
// It returns every result and how many operations each client made.
func runClosed(clients int, dur time.Duration, first []int, op func(c, i int) result) ([]result, []int) {
	stop := time.Now().Add(dur)
	per := make([][]result, clients)
	next := append([]int(nil), first...)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				per[c] = append(per[c], op(c, next[c]))
				next[c]++
			}
		}(c)
	}
	wg.Wait()
	var all []result
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, next
}

// arrival is one open-loop request: due at offset at from the phase
// start, with a deadline budget after its due time and a priority class.
type arrival struct {
	at     time.Duration
	budget time.Duration
	class  engine.PriorityClass
}

// runOpen fires sched on its own clock, each arrival on its own
// goroutine, and waits for every one to complete. No arrival is ever
// dropped: one the generator reaches late is sent late, its latency
// still counts from when it was due, and the lateness is returned in
// lag. stall, when non-nil, runs on the generator before each arrival
// (tests inject stalls through it).
func runOpen(sched []arrival, send func(i int, due time.Time) result, stall func(i int)) (rs []result, lag []time.Duration, start time.Time) {
	rs = make([]result, len(sched))
	lag = make([]time.Duration, len(sched))
	var wg sync.WaitGroup
	start = time.Now()
	for i, a := range sched {
		if stall != nil {
			stall(i)
		}
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			rs[i] = send(i, due)
		}(i, due)
	}
	wg.Wait()
	return rs, lag, start
}

// maxLagP99 is the generator lateness beyond which an open-loop run is
// flagged invalid: the load it offered no longer matched its schedule.
const maxLagP99 = 10 * time.Millisecond

// lagP99 is the 99th percentile of generator lateness.
func lagP99(lag []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lag...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.99)
}
