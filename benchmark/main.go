// Command benchmark is the repository's end-to-end benchmark. It boots
// in-process MEAD deployments through experiment.NewDeployment, drives one
// named workload in a closed loop for a fixed time, checks every reply, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics of
// a traced run) with the result object as the last line of standard output.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload steady-pool --seed 1 --seconds 10 --trace 0
//
// It measures every layer from outside, only by timing and counting calls
// into each package's public functions; see benchmark/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	problems  []string
	host      hostRecord
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: failover-mead | steady-pool | durable-fanin")
	seed := fs.Int64("seed", 1, "workload seed (identity draws and fault seeds derive from it)")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(root)
	cfg := config{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), root: root}
	cfg.host = newHostRecord(*seed, root)

	var rep report
	if *trace == 1 {
		rep, err = traced(cfg)
	} else {
		rep, err = untraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	print(stdout, w, rep)
	if !rep.correct {
		for _, p := range rep.problems {
			fmt.Fprintln(stderr, "benchmark: check failed:", p)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// print writes one human-readable line per metric, with its unit and
// sample count, then the host record, then the result object last.
func print(out io.Writer, w workload, rep report) {
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "  %-32s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	host, _ := json.Marshal(rep.host)
	fmt.Fprintf(out, "host %s\n", host)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	fmt.Fprintf(out, "%s\n", line)
}

// config is one run's settings.
type config struct {
	w      workload
	seed   int64
	window time.Duration
	root   string // run-private scratch directory inside the checkout
	host   hostRecord
}

// setupBoots and setupMinTime bound from below each of a run's two batches
// of set-up boots: at least setupBoots boots and at least setupMinTime of
// summed set-up time. The first batch runs before the timed window, and its
// last boot carries the window; the second runs after the restarts, about
// a window later, so a burst of outside load during one batch moves the
// median of both by little. setup_s is that median. A 5 ms in-memory boot
// waits on the deployment's millisecond membership polling, so a median of
// a few boots jumps between runs; a second of boots (about 200 in memory,
// 10 durable) holds it steady.
const (
	setupBoots   = 9
	setupMinTime = time.Second
)

// bootMeasured boots deployments until it has made at least boots of them
// and minTime of set-up, keeps the last, and returns each boot's set-up
// time.
func bootMeasured(cfg config, boots int, minTime time.Duration, tr *tracer) (*session, []float64, error) {
	var setups []float64
	var total time.Duration
	var s *session
	for k := 0; ; k++ {
		dir := filepath.Join(cfg.root, fmt.Sprintf("state-%d", k))
		runtime.GC() // start each timed phase from a collected heap
		start := time.Now()
		var err error
		s, err = boot(cfg.w, cfg.seed, dir, tr)
		if err != nil {
			return nil, nil, err
		}
		took := time.Since(start)
		setups = append(setups, took.Seconds())
		total += took
		if k+1 >= boots && total >= minTime {
			return s, setups, nil
		}
		s.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// windowSlices is how many equal slices the timed window is cut into. The
// throughput, latency, CPU and GCS figures are medians over the slices, so a
// burst of outside load in one slice moves them little.
const windowSlices = 20

// windowResult is the timed window's raw outcome.
type windowResult struct {
	elapsed               time.Duration
	attempted, ok, failed int
	slices                []sliceResult
	failover              []int64
	regressions           int
	cpu                   time.Duration
	mem                   memStats // deltas
	gcsBytes              uint64
	before, after         telemetryCounts
	problems              []string
}

// sliceResult is one slice of the timed window.
type sliceResult struct {
	dur    time.Duration
	ok     int
	steady *latHist
	cpu    time.Duration
	gcs    uint64
}

// timedWindow runs the window and applies the output checks that depend on
// it.
func timedWindow(s *session, cfg config) windowResult {
	var r windowResult
	r.before = s.counts()
	s.d.Hub().ResetTraffic()
	type mark struct {
		at  time.Time
		cpu time.Duration
		gcs uint64
	}
	var marks []mark
	m0 := readMem()
	hists := make([]*latHist, windowSlices)
	for k := range hists {
		hists[k] = &latHist{}
	}
	r.elapsed = s.window(cfg.window, hists, func() {
		g, _ := s.d.Hub().GroupTraffic(s.d.Group())
		marks = append(marks, mark{time.Now(), cpuTime(), g})
	})
	m1 := readMem()
	r.mem = memStats{mallocs: m1.mallocs - m0.mallocs, gcs: m1.gcs - m0.gcs}
	first, last := marks[0], marks[len(marks)-1]
	r.cpu, r.gcsBytes = last.cpu-first.cpu, last.gcs-first.gcs
	r.after = s.counts()
	r.slices = make([]sliceResult, windowSlices)
	for k := range r.slices {
		sl := &r.slices[k]
		sl.dur = marks[k+1].at.Sub(marks[k].at)
		sl.cpu = marks[k+1].cpu - marks[k].cpu
		sl.gcs = marks[k+1].gcs - marks[k].gcs
		sl.steady = hists[k]
		for _, c := range s.callers {
			sl.ok += c.slices[k]
		}
	}
	var errs []error
	for _, c := range s.callers {
		r.attempted += c.attempted
		r.ok += c.ok
		r.failed += c.failed
		r.failover = append(r.failover, c.failover...)
		r.regressions += c.regressions
		errs = append(errs, c.errs...)
	}
	for _, err := range errs {
		if !isSystemException(err) {
			r.problems = append(r.problems, fmt.Sprintf("a reply did not decode: %v", err))
			break
		}
	}
	if r.ok == 0 {
		r.problems = append(r.problems, "no invocation succeeded")
	}
	if cfg.w.leak {
		return r // MEAD: regressions and client failures are measured, not gated
	}
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d calls failed on a fault-free workload (first: %v)", r.failed, r.attempted, errors.Join(errs...)))
	}
	if r.regressions > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d replies did not raise their caller's counter", r.regressions))
	}
	prim := liveReplica(s.d, s.callers[0].replica)
	if prim == nil {
		r.problems = append(r.problems, "the primary that answered is no longer live")
	} else if got, want := prim.StateCounter(), uint64(int(s.warm.Load())+r.ok); got != want {
		r.problems = append(r.problems, fmt.Sprintf("primary counter %d != warm-up + successful calls %d: not exactly once", got, want))
	}
	return r
}

// untraced measures the end-to-end metrics.
func untraced(cfg config) (report, error) {
	s, setups, err := bootMeasured(cfg, setupBoots, setupMinTime, nil)
	if err != nil {
		return report{}, err
	}
	defer s.close()
	win := timedWindow(s, cfg)
	rep := report{host: cfg.host, attempted: win.attempted, failed: win.failed, problems: win.problems}

	failover := handoffs(s, win, &rep)
	rr, err := s.restartPhase(cfg.root)
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	lateCfg := cfg
	lateCfg.root = filepath.Join(cfg.root, "late-setup") // fresh durable state
	late, more, err := bootMeasured(lateCfg, setupBoots, setupMinTime, nil)
	if err != nil {
		return report{}, err
	}
	late.close()
	setups = append(setups, more...)

	add := func(name string, v float64, unit string, n int) {
		rep.metrics = append(rep.metrics, metric{name, v, unit, n})
	}
	add("setup_s", median(setups), "s", len(setups))
	add("throughput_ops", win.sliceMedian(func(sl sliceResult) float64 { return float64(sl.ok) / sl.dur.Seconds() }), "ops/s", win.ok)
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_us", 0.50}, {"latency_p90_us", 0.90}} {
		rep.addSliceQuantile(q.name, win, q.q)
	}
	rep.addChunkMedian("failover_p50_us", failover)
	add("client_success_ratio", float64(win.attempted-win.failed)/float64(win.attempted), "ratio", win.attempted)
	add("cpu_us_per_op", win.sliceMedian(func(sl sliceResult) float64 { return float64(sl.cpu) / 1e3 / float64(sl.ok) }), "us", win.ok)
	add("gcs_bytes_per_op", win.sliceMedian(func(sl sliceResult) float64 { return float64(sl.gcs) / float64(sl.ok) }), "B", win.ok)
	add("restart_s", rr.seconds, "s", rr.cycles)
	add("peak_rss_mb", peakRSSMB(), "MB", 1)
	rep.correct = len(rep.problems) == 0
	return rep, nil
}

// handoffs returns the hand-off latencies in chunks: the window's on
// failover-mead as one chunk, the fail-over phase's on the pooled workloads
// in chunks of chunkMigrations migrations.
func handoffs(s *session, win windowResult, rep *report) [][]int64 {
	if s.w.migrations == 0 {
		return [][]int64{win.failover}
	}
	chunks, failed, err := s.failoverPhase()
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	if failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d calls failed across planned LOCATION_FORWARD migrations", failed))
	}
	return chunks
}

// addQuantile adds a percentile metric in microseconds, or a problem when
// too few samples lie beyond it.
func (rep *report) addQuantile(name string, sortedUS []float64, q float64) {
	v, beyond, ok := quantile(sortedUS, q)
	if !ok {
		rep.problems = append(rep.problems, fmt.Sprintf("%s: %d samples, only %d beyond the percentile (need %d)", name, len(sortedUS), beyond, minBeyond))
	}
	rep.metrics = append(rep.metrics, metric{name, v, "us", len(sortedUS)})
}

// addChunkMedian adds the median over chunks of each chunk's median, in
// microseconds, or a problem when a chunk has too few samples beyond its
// median.
func (rep *report) addChunkMedian(name string, chunks [][]int64) {
	var vs []float64
	var total int
	for _, ns := range chunks {
		v, beyond, ok := quantile(durationsUS(ns), 0.50)
		if !ok {
			rep.problems = append(rep.problems, fmt.Sprintf("%s: a chunk has %d samples, only %d beyond the median (need %d)", name, len(ns), beyond, minBeyond))
			continue
		}
		vs = append(vs, v)
		total += len(ns)
	}
	rep.metrics = append(rep.metrics, metric{name, median(vs), "us", total})
}

// sliceMedian is the median over the window's slices of f.
func (r windowResult) sliceMedian(f func(sliceResult) float64) float64 {
	vs := make([]float64, 0, len(r.slices))
	for _, sl := range r.slices {
		if sl.ok > 0 {
			vs = append(vs, f(sl))
		}
	}
	return median(vs)
}

// addSliceQuantile adds the median over the window's slices of each slice's
// q-quantile of steady latency, or a problem when a slice has too few
// samples beyond it.
func (rep *report) addSliceQuantile(name string, r windowResult, q float64) {
	var vs []float64
	var total uint64
	for _, sl := range r.slices {
		v, n, beyond, ok := sl.steady.quantileUS(q)
		if !ok {
			rep.problems = append(rep.problems, fmt.Sprintf("%s: a slice has %d samples, only %d beyond the percentile (need %d)", name, n, beyond, minBeyond))
			continue
		}
		vs = append(vs, v)
		total += n
	}
	rep.metrics = append(rep.metrics, metric{name, median(vs), "us", int(total)})
}
