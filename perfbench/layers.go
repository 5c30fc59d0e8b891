package main

import (
	"runtime"
	"sort"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// snapshot is the counter state of the served models at one instant;
// per-layer counters are differences between two snapshots.
type snapshot struct {
	at    time.Time
	infos map[string]serve.ModelInfo
	opsNs map[string]int64 // Σ instruction-span ns per op kind, all tracers
	tnow  map[string]int64 // each model tracer's clock
	mem   runtime.MemStats
}

func takeSnapshot(st *stack, names []string) snapshot {
	s := snapshot{infos: map[string]serve.ModelInfo{}, opsNs: map[string]int64{}, tnow: map[string]int64{}}
	for _, info := range st.reg.Models() {
		s.infos[info.Name] = info
	}
	for _, n := range names {
		if t := st.reg.Tracer(n); t != nil {
			for _, op := range t.OpProfile() {
				s.opsNs[op.Name] += op.SumNs
			}
			s.tnow[n] = t.Now()
		}
	}
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s
}

// layerRun is everything a traced run hands the per-layer report.
type layerRun struct {
	st        *stack
	names     []string    // served model names
	served    []*compiled // the artifact each name was first loaded from
	setup     *setupStats
	before    snapshot // start of the traced phase
	after     snapshot // end of the traced phase
	traced    phaseOut
	tputPlain float64 // untraced phase throughput, samples/s
	tputTrace float64 // traced phase throughput, samples/s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

// executorOps are the op kinds executor.op.<kind>.self_ms reports.
var executorOps = []string{"conv", "linear", "matmul", "softmax", "layernorm", "gelu", "rescale", "avgpool"}

// kernelPaths are the bound kernel paths kernel.<path>.instrs counts.
var kernelPaths = []string{"swar", "swar-sparse", "i32-panel", "i32-sparse", "i32-nm", "i32-direct", "matmul"}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(lr layerRun) (map[string]float64, error) {
	m := map[string]float64{}
	b, a := lr.before, lr.after
	elapsed := a.at.Sub(b.at).Seconds()

	// core / export: the set-up repetitions.
	m["core.compile_ms"] = ms(medianDur(lr.setup.compile))
	m["export.write_ms"] = ms(medianDur(lr.setup.write))
	for _, c := range lr.setup.models {
		m["export.ckpt_bytes"] += float64(c.ckptSize)
	}
	for _, c := range lr.served {
		m["core.instrs_fused"] += float64(len(c.prog.Instrs))
	}

	// serve.registry and the counters every model entry keeps.
	lr.st.mu.Lock()
	m["serve.load_ms"] = ms(medianDur(lr.st.loads))
	m["serve.loads"] = float64(len(lr.st.loads))
	lr.st.mu.Unlock()
	var engineSamples, batches, costBatches, costErr float64
	samplesOf := map[string]float64{}
	for _, n := range lr.names {
		ib, ia := b.infos[n], a.infos[n]
		m["admission.rejected"] += float64(ia.Shed - ib.Shed)
		m["cache.hits"] += float64(ia.Cache.Hits - ib.Cache.Hits)
		m["cache.misses"] += float64(ia.Cache.Misses - ib.Cache.Misses)
		m["cache.evictions"] += float64(ia.Cache.Evictions - ib.Cache.Evictions)
		m["cache.suppressed"] += float64(ia.Cache.Suppressed - ib.Cache.Suppressed)
		sb, sa := ib.Stats, ia.Stats
		samplesOf[n] = float64(sa.Requests - sb.Requests)
		engineSamples += samplesOf[n]
		batches += float64(sa.Batches - sb.Batches)
		m["server.expired"] += float64(sa.Expired - sb.Expired)
		m["server.shed_high"] += float64(sa.ShedHigh - sb.ShedHigh)
		m["server.shed_normal"] += float64(sa.ShedNormal - sb.ShedNormal)
		m["server.shed_low"] += float64(sa.ShedLow - sb.ShedLow)
		// The cost record covers the live replica pool only; a reload
		// replaces it, and then the new pool's record is the whole delta.
		cb, ca := ib.Cost, ia.Cost
		if ia.Version != ib.Version {
			cb = engine.CostStats{}
		}
		costBatches += float64(ca.Batches - cb.Batches)
		costErr += float64(ca.AbsErrMicroSum-cb.AbsErrMicroSum) / 1e6
	}
	m["cache.hit_rate"] = div(m["cache.hits"], m["cache.hits"]+m["cache.misses"])
	m["server.batches"] = batches
	m["server.batch_mean"] = div(engineSamples, batches)
	m["server.cost_abs_err"] = div(costErr, costBatches)

	// Spans of the traced phase, from each model's tracer.
	var queueWait, batchExec []int64
	var batchNs, waveNs, instrNs, windowSamples float64
	fanouts := map[uint64][][2]int64{}
	for _, n := range lr.names {
		t := lr.st.reg.Tracer(n)
		for _, sp := range t.Snapshot() {
			if sp.Start < b.tnow[n] {
				continue
			}
			switch sp.Kind {
			case trace.KindQueueWait:
				queueWait = append(queueWait, sp.Dur)
			case trace.KindBatch:
				batchExec = append(batchExec, sp.Dur)
				batchNs += float64(sp.Dur)
				windowSamples += float64(sp.A0)
			case trace.KindWave:
				waveNs += float64(sp.Dur)
			case trace.KindInstr:
				instrNs += float64(sp.Dur)
			case trace.KindFanout:
				fanouts[sp.ID] = append(fanouts[sp.ID], [2]int64{sp.Start, sp.Start + sp.Dur})
			}
		}
	}
	sortInt64(queueWait)
	sortInt64(batchExec)
	m["server.queue_wait_p50_ms"] = float64(quantile(queueWait, 0.50)) / 1e6
	m["server.queue_wait_p99_ms"] = float64(quantile(queueWait, 0.99)) / 1e6
	m["server.batch_exec_p50_ms"] = float64(quantile(batchExec, 0.50)) / 1e6
	workers := engine.ServerOptions{}.WithDefaults().Workers
	m["server.busy_frac"] = div(batchNs/1e9, elapsed*float64(workers*len(lr.names)))

	// engine.executor: instruction spans exist only outside parallel
	// waves; a wave's self time is its span minus its instructions.
	for _, op := range executorOps {
		m["executor.op."+op+".self_ms"] = div(float64(a.opsNs[op]-b.opsNs[op])/1e6, engineSamples)
	}
	m["executor.wave.self_ms"] = div((waveNs-instrNs)/1e6, windowSamples)
	allocs, err := allocsPerSample(lr.served)
	if err != nil {
		return nil, err
	}
	m["executor.allocs_per_sample"] = allocs

	// kernels: bound paths and modeled work of the served programs,
	// weighted by the samples each served.
	for _, p := range kernelPaths {
		m["kernel."+p+".instrs"] = 0
	}
	var dense, eff, bytes float64
	for _, c := range lr.served {
		k, err := kernelStats(c.prog)
		if err != nil {
			return nil, err
		}
		for p, n := range k.paths {
			m["kernel."+p+".instrs"] += float64(n)
		}
		w := samplesOf[c.spec.name]
		dense += w * k.dense
		eff += w * k.eff
		bytes += w * k.bytes
	}
	m["kernel.macs_per_sample"] = div(dense, engineSamples)
	m["kernel.eff_macs_per_sample"] = div(eff, engineSamples)
	m["kernel.bytes_per_sample"] = div(bytes, engineSamples)
	m["kernel.gmacs"] = div(eff/1e9, batchNs/1e9)
	if dense > 0 {
		m["sparse.skip_fraction"] = 1 - eff/dense
	}

	// serve.http: the benchmark's handler spans, minus the registry and
	// engine time under them (the union of the request's fan-out spans).
	if lr.st.timer != nil {
		lr.st.timer.mu.Lock()
		spans := append([]handlerSpan(nil), lr.st.timer.spans...)
		lr.st.timer.mu.Unlock()
		var handler, self []int64
		var bytesIn float64
		for _, sp := range spans {
			handler = append(handler, int64(sp.dur))
			self = append(self, int64(sp.dur)-unionLen(fanouts[sp.tid]))
			bytesIn += float64(sp.bytesIn)
		}
		sortInt64(handler)
		sortInt64(self)
		m["http.handler_p50_ms"] = float64(quantile(handler, 0.5)) / 1e6
		m["http.self_p50_ms"] = float64(quantile(self, 0.5)) / 1e6
		m["http.bytes_in_per_req"] = div(bytesIn, float64(len(spans)))
	}

	// runtime
	ops := float64(len(lr.traced.rs) + len(lr.traced.other))
	m["go.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	m["go.alloc_mb_per_1k_req"] = div(float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/(1<<20)*1000, ops)

	// trace / harness
	m["trace.overhead_frac"] = 1 - div(lr.tputTrace, lr.tputPlain)
	if !lr.traced.closed {
		m["loadgen.lag_p99_ms"] = ms(lagP99(lr.traced.lag))
	}
	return m, nil
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, end int64
	for i, v := range s {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// kernelInfo is one program's bound kernel paths and modeled per-sample
// work at the serving batch size.
type kernelInfo struct {
	paths      map[string]int
	dense, eff float64 // MACs per sample
	bytes      float64 // bytes moved per sample, computed from tensor sizes
}

// kernelStats binds prog at the default MaxBatch and reads its kernel
// choices, modeled MACs, and the bytes its instructions read and write:
// every operand and output buffer at its planned dtype, plus conv and
// linear weights at one byte each (8-bit weights).
func kernelStats(prog *engine.Program) (kernelInfo, error) {
	batch := engine.ServerOptions{}.WithDefaults().MaxBatch
	in := append([]int{batch}, prog.InShape...)
	ex, err := engine.NewExecutor(prog, in)
	if err != nil {
		return kernelInfo{}, err
	}
	k := kernelInfo{paths: map[string]int{}}
	for _, c := range ex.KernelChoices() {
		k.paths[c.Path]++
	}
	d, e, err := prog.ModeledMacs(append([]int{1}, prog.InShape...))
	if err != nil {
		return kernelInfo{}, err
	}
	k.dense, k.eff = float64(d), float64(e)
	pl := ex.Plan()
	bufBytes := func(b int) float64 {
		return float64(tensor.Numel(pl.Shapes[b]) * pl.DTypes[b].Size())
	}
	var total float64
	for i := range prog.Instrs {
		it := &prog.Instrs[i]
		for _, b := range it.In {
			total += bufBytes(b)
		}
		total += bufBytes(it.Out)
		if it.W != nil {
			total += float64(len(it.W.Data))
		}
	}
	k.bytes = total / float64(batch)
	return k, nil
}

// allocsPerSample measures heap allocations per sample of steady-state
// batched executes, averaged over the served programs.
func allocsPerSample(served []*compiled) (float64, error) {
	const iters = 16
	batch := engine.ServerOptions{}.WithDefaults().MaxBatch
	var total float64
	for _, c := range served {
		in := append([]int{batch}, c.prog.InShape...)
		ex, err := engine.NewExecutor(c.prog, in)
		if err != nil {
			return 0, err
		}
		codes := tensor.NewInt(in...)
		c.prog.InQuant.QuantizeTo(codes, tensor.New(in...))
		out := tensor.NewInt(ex.OutShape()...)
		if _, err := ex.ExecuteCodes(codes, out); err != nil {
			return 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < iters; i++ {
			if _, err := ex.ExecuteCodes(codes, out); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&m1)
		total += float64(m1.Mallocs-m0.Mallocs) / float64(iters*batch)
	}
	return total / float64(len(served)), nil
}
