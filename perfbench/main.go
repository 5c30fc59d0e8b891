// Command perfbench is the repository's serving benchmark. It makes the
// models of one workload servable through the toolkit (compile, export,
// upload), drives the workload's traffic for a fixed time through the
// public serving entry points, checks the verified responses bit for
// bit against the interpreter oracle, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload offline-resnet20 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the
// time untraced and half traced and reports the per-layer metrics.
// The exit code is non-zero when a check fails or the run cannot start.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: payloads, orders, schedules and the checked subset")
	seconds := flag.Float64("seconds", 10, "timed phase length in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}
	rep, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	info, _ := json.Marshal(map[string]any{"perfbench": rep.info})
	fmt.Println(string(info))
	line, _ := json.Marshal(rep.result)
	fmt.Println(string(line))
	if !rep.result.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed\n", w.name)
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ",")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchResult is the benchmark's last output line.
type benchResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result benchResult
	info   map[string]any
}

// execute sets the workload up, runs its timed phase(s), and builds the
// report. An untraced run has one phase of cfg.dur; a traced run has an
// untraced and a traced phase of half that each.
func execute(w workload, cfg runConfig) (*report, error) {
	calib := calibSet()
	st, setup, err := setUp(w.specs, w.nServed, w.reps, w.http, cfg.trace, calib)
	if err != nil {
		return nil, err
	}
	defer st.close()
	served := setup.models[:w.nServed]
	var names []string
	for _, c := range served {
		names = append(names, c.spec.name)
	}
	if err := st.warmBuckets(names, rngFor(cfg.seed, streamWarm)); err != nil {
		return nil, err
	}
	d, err := w.start(cfg, st, setup.models)
	if err != nil {
		return nil, err
	}
	defer d.close()

	var phases []phaseOut
	metrics := map[string]metric{}
	runtime.GC()
	if !cfg.trace {
		ph := d.phase(cfg.dur)
		phases = append(phases, ph)
		s := w.summarize(ph)
		vals := map[string]float64{
			"setup_s":         medianDur(setup.total).Seconds(),
			"throughput_sps":  div(float64(s.okSamples), s.elapsed.Seconds()),
			"latency_p50_ms":  ms(s.p50),
			"latency_tail_ms": ms(s.tail),
			"slo_attainment":  div(float64(s.sloMet), float64(s.attempted)),
			"mem_peak_mb":     peakRSSMB(),
		}
		for _, m := range endToEndMetrics {
			metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		st.setTracing(false, names)
		plain := d.phase(cfg.dur / 2)
		runtime.GC()
		before := takeSnapshot(st, names)
		st.setTracing(true, names)
		tr := d.phase(cfg.dur / 2)
		st.setTracing(false, names)
		after := takeSnapshot(st, names)
		phases = append(phases, plain, tr)
		tput := func(ph phaseOut) float64 {
			s := w.summarize(ph)
			return div(float64(s.okSamples), s.elapsed.Seconds())
		}
		vals, err := layerMetrics(layerRun{
			st: st, names: names, served: served, setup: setup,
			before: before, after: after, traced: tr,
			tputPlain: tput(plain), tputTrace: tput(tr),
		})
		if err != nil {
			return nil, err
		}
		for _, m := range perLayerMetrics {
			metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}

	rep := &report{result: benchResult{Metrics: metrics}, info: hostInfo(cfg, w)}
	failures := map[string]int{}
	var all []result
	for _, ph := range phases {
		all = append(all, ph.rs...)
		all = append(all, ph.other...)
	}
	for _, r := range all {
		if r.fail != "" {
			failures[r.fail]++
		}
	}
	rep.result.Attempted = len(all)
	for _, n := range failures {
		rep.result.Failed += n
	}
	checked, covered := d.checked()
	rep.result.Correct = failures[failMismatch] == 0 && covered && checked > 0

	first := w.summarize(phases[0])
	rep.info["failures"] = failures
	rep.info["error_rate"] = div(float64(rep.result.Failed), float64(rep.result.Attempted))
	rep.info["checked_responses"] = checked
	rep.info["checked_cover_all"] = covered
	rep.info["tail_percentile"] = first.tailPct
	rep.info["tail_windows"] = w.tailWindows
	rep.info["latency_samples"] = first.attempted - first.failed
	rep.info["setup_reps"] = len(setup.total)
	if !phases[0].closed {
		lag := lagP99(phases[len(phases)-1].lag)
		rep.info["loadgen_lag_p99_ms"] = ms(lag)
		rep.info["loadgen_valid"] = lag <= maxLagP99
		if lag > maxLagP99 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: INVALID RUN: generator lag p99 %.2f ms > %v\n", w.name, ms(lag), maxLagP99)
		}
	}
	return rep, nil
}

// hostInfo records the facts that make a run comparable with another.
func hostInfo(cfg runConfig, w workload) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.dur.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the revision the binary was built from, as the Go
// toolchain stamped it ("unknown" when built outside a git checkout).
func gitCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
