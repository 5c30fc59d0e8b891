package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/tensor"
)

// sampleN is the element count of one [3,32,32] sample.
const sampleN = 3 * imgSize * imgSize

// Independent random streams derived from the workload seed, one per
// purpose, so changing how many values one purpose draws never shifts
// another's.
const (
	streamPayload = iota + 1
	streamOrder
	streamSchedule
	streamVerify
	streamWarm
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// genSamples draws n samples with values on a 0.01 grid in [0, 0.99]:
// short to encode, and with 3072 of them a repeat is out of reach.
func genSamples(r *rand.Rand, n int) []float32 {
	out := make([]float32, n*sampleN)
	for i := range out {
		out[i] = float32(r.Intn(100)) / 100
	}
	return out
}

// encodeBody renders a predict body for n samples in the serving input
// format: {"shape":[n,3,32,32],"data":[...]}.
func encodeBody(data []float32, n int) []byte {
	b := make([]byte, 0, 32+5*len(data))
	b = append(b, `{"shape":[`...)
	b = strconv.AppendInt(b, int64(n), 10)
	for _, d := range sampleShape {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(d), 10)
	}
	b = append(b, `],"data":[`...)
	for i, v := range data {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// sampleTensor wraps sample i of data as a [1,3,32,32] tensor.
func sampleTensor(data []float32, i int) *tensor.Tensor {
	return tensor.FromSlice(data[i*sampleN:(i+1)*sampleN], append([]int{1}, sampleShape...)...)
}

// zipfRanks draws count payload ranks from Zipf(s) over [0, n).
func zipfRanks(r *rand.Rand, s float64, n, count int) []int {
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// burstShape is an open-loop arrival process: every period holds
// exactly burstN arrivals in its first burstLen and baseN over the
// rest. Each arrival sits at a seeded uniform position inside its own
// equal slot of its segment, so the offered load is the same for every
// seed and only the fine arrival pattern varies. Each
// arrival draws a tight or loose deadline and a priority class.
type burstShape struct {
	period, burstLen time.Duration
	burstN, baseN    int
	tightFrac        float64
	tight, loose     time.Duration
	highFrac         float64
	lowFrac          float64
}

// schedule draws the arrivals of one run of length dur, in due order.
func (b burstShape) schedule(r *rand.Rand, dur time.Duration) []arrival {
	var out []arrival
	for p0 := time.Duration(0); p0 < dur; p0 += b.period {
		var at []time.Duration
		at = jittered(r, at, p0, b.burstLen, b.burstN)
		at = jittered(r, at, p0+b.burstLen, b.period-b.burstLen, b.baseN)
		for _, t := range at {
			if t >= dur {
				break
			}
			a := arrival{at: t, budget: b.loose, class: engine.PriNormal}
			if r.Float64() < b.tightFrac {
				a.budget = b.tight
			}
			switch u := r.Float64(); {
			case u < b.highFrac:
				a.class = engine.PriHigh
			case u < b.highFrac+b.lowFrac:
				a.class = engine.PriLow
			}
			out = append(out, a)
		}
	}
	return out
}

// jittered appends n times in [from, from+span), one uniformly inside
// each of n equal slots, in ascending order.
func jittered(r *rand.Rand, dst []time.Duration, from, span time.Duration, n int) []time.Duration {
	slot := span / time.Duration(n)
	for i := 0; i < n; i++ {
		dst = append(dst, from+time.Duration(i)*slot+time.Duration(r.Int63n(int64(slot))))
	}
	return dst
}

// pickSubset returns k distinct indices from [0, n), always including 0,
// in ascending order: the seed-determined set of operations whose
// responses are checked against the oracle.
func pickSubset(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	seen := map[int]bool{0: true}
	out := []int{0}
	for len(out) < k {
		i := r.Intn(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
