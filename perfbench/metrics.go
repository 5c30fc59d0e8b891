package main

// The metric tables. BENCHMARK.json lists the same names and units; a
// test keeps the two in step. Each per-layer metric records which
// end-to-end metric it should move, on which workload, so a change can
// cite its prediction by name before it is measured.

// endToEnd is one metric a user of the serving system sees. Every
// workload reports all of them in an untraced run.
type endToEnd struct {
	name, unit, better string
	bound              float64
}

var endToEndMetrics = []endToEnd{
	// Closed loop: timed from send. Open loop: timed from when due.
	{"latency_p50_ms", "ms", "lower", 0.25},
	// The workload's fixed percentile (p95 offline, p99 otherwise); a
	// failed request counts as missing every limit.
	{"latency_tail_ms", "ms", "lower", 0.25},
	// Successful samples per second over the timed phase.
	{"throughput_sps", "1/s", "higher", 0.25},
	// Share of requests sent that succeeded within their deadline;
	// closed-loop requests carry none, so there it is the success share.
	{"slo_attainment", "frac", "higher", 0.05},
	// Peak RSS of the benchmark process (set-up and load included).
	{"mem_peak_mb", "MB", "lower", 0.2},
	// Median over the workload's set-up repetitions of Prepare →
	// Calibrate → Compile → WriteJSON → upload → one warm-up predict per
	// served model.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one metric of a single layer, read in a traced run.
type perLayer struct {
	name, unit, better string
	moves              string // the end-to-end metric and workload it should move
}

var perLayerMetrics = []perLayer{
	{"core.compile_ms", "ms", "lower", "setup_s on all"},
	{"core.instrs_fused", "count", "lower", "latency_p50_ms on offline-resnet20"},
	{"export.ckpt_bytes", "bytes", "lower", "setup_s on all"},
	{"export.write_ms", "ms", "lower", "setup_s on all"},
	{"serve.load_ms", "ms", "lower", "setup_s on all; latency_tail_ms on online-zipf-mobilenet"},
	{"serve.loads", "count", "higher", "latency_tail_ms on online-zipf-mobilenet"},
	{"admission.rejected", "count", "lower", "slo_attainment on open-vit-bursty"},
	{"http.handler_p50_ms", "ms", "lower", "latency_p50_ms on online-zipf-mobilenet; none on open-vit-bursty"},
	{"http.self_p50_ms", "ms", "lower", "latency_p50_ms and throughput_sps on online-zipf-mobilenet"},
	{"http.bytes_in_per_req", "bytes", "lower", "throughput_sps on online-zipf-mobilenet"},
	{"cache.hits", "count", "higher", "throughput_sps on online-zipf-mobilenet; none on offline-resnet20 and open-vit-bursty"},
	{"cache.misses", "count", "lower", "throughput_sps on online-zipf-mobilenet"},
	{"cache.hit_rate", "frac", "higher", "throughput_sps on online-zipf-mobilenet"},
	{"cache.evictions", "count", "lower", "latency_tail_ms on online-zipf-mobilenet"},
	{"cache.suppressed", "count", "lower", "none: all-miss workloads suppress inserts"},
	{"server.batches", "count", "higher", "throughput_sps on offline-resnet20"},
	{"server.batch_mean", "samples", "higher", "throughput_sps on offline-resnet20"},
	{"server.queue_wait_p50_ms", "ms", "lower", "latency_p50_ms on open-vit-bursty"},
	{"server.queue_wait_p99_ms", "ms", "lower", "latency_tail_ms and slo_attainment on open-vit-bursty"},
	{"server.batch_exec_p50_ms", "ms", "lower", "throughput_sps on offline-resnet20"},
	{"server.busy_frac", "frac", "higher", "throughput_sps on offline-resnet20"},
	{"server.expired", "count", "lower", "slo_attainment on open-vit-bursty"},
	{"server.shed_high", "count", "lower", "slo_attainment on open-vit-bursty"},
	{"server.shed_normal", "count", "lower", "slo_attainment on open-vit-bursty"},
	{"server.shed_low", "count", "lower", "slo_attainment on open-vit-bursty"},
	{"server.cost_abs_err", "frac", "lower", "latency_tail_ms and slo_attainment on open-vit-bursty"},
	{"executor.op.conv.self_ms", "ms/sample", "lower", "throughput_sps on offline-resnet20"},
	{"executor.op.linear.self_ms", "ms/sample", "lower", "latency_tail_ms on open-vit-bursty"},
	{"executor.op.matmul.self_ms", "ms/sample", "lower", "latency_tail_ms on open-vit-bursty"},
	{"executor.op.softmax.self_ms", "ms/sample", "lower", "latency_tail_ms on open-vit-bursty"},
	{"executor.op.layernorm.self_ms", "ms/sample", "lower", "latency_tail_ms on open-vit-bursty"},
	{"executor.op.gelu.self_ms", "ms/sample", "lower", "latency_tail_ms on open-vit-bursty"},
	{"executor.op.rescale.self_ms", "ms/sample", "lower", "throughput_sps on offline-resnet20"},
	{"executor.op.avgpool.self_ms", "ms/sample", "lower", "throughput_sps on offline-resnet20"},
	{"executor.wave.self_ms", "ms/sample", "lower", "throughput_sps on offline-resnet20; latency_tail_ms on open-vit-bursty"},
	{"executor.allocs_per_sample", "count", "lower", "latency_tail_ms on open-vit-bursty"},
	{"kernel.swar.instrs", "count", "higher", "throughput_sps on offline-resnet20"},
	{"kernel.swar-sparse.instrs", "count", "higher", "throughput_sps on offline-resnet20"},
	{"kernel.i32-panel.instrs", "count", "higher", "throughput_sps on offline-resnet20"},
	{"kernel.i32-sparse.instrs", "count", "higher", "throughput_sps on offline-resnet20"},
	{"kernel.i32-nm.instrs", "count", "higher", "throughput_sps on offline-resnet20"},
	{"kernel.i32-direct.instrs", "count", "higher", "throughput_sps on online-zipf-mobilenet"},
	{"kernel.matmul.instrs", "count", "higher", "latency_tail_ms on open-vit-bursty"},
	{"kernel.macs_per_sample", "MAC", "lower", "throughput_sps on offline-resnet20"},
	{"kernel.eff_macs_per_sample", "MAC", "lower", "throughput_sps on offline-resnet20"},
	{"kernel.bytes_per_sample", "bytes", "lower", "throughput_sps on offline-resnet20"},
	{"kernel.gmacs", "GMAC/s", "higher", "throughput_sps on offline-resnet20"},
	{"sparse.skip_fraction", "frac", "higher", "throughput_sps on offline-resnet20"},
	{"go.gc_cycles", "count", "lower", "latency_tail_ms and mem_peak_mb on online-zipf-mobilenet"},
	{"go.alloc_mb_per_1k_req", "MB", "lower", "latency_tail_ms and mem_peak_mb on online-zipf-mobilenet"},
	{"trace.overhead_frac", "frac", "lower", "none: validity of the traced run"},
	{"loadgen.lag_p99_ms", "ms", "lower", "none: a run above 10 ms is flagged invalid"},
}
