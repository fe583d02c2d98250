package main

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mead/internal/telemetry"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	v, beyond, ok := quantile(ramp(100), 0.50)
	if v != 50 || beyond != 50 || !ok {
		t.Fatalf("p50 of 1..100 = %v (beyond %d, ok %v), want 50 (beyond 50)", v, beyond, ok)
	}
	v, beyond, ok = quantile(ramp(100), 0.90)
	if v != 90 || beyond != 10 || !ok {
		t.Fatalf("p90 of 1..100 = %v (beyond %d, ok %v), want 90 (beyond 10)", v, beyond, ok)
	}
	if _, _, ok := quantile(nil, 0.5); ok {
		t.Fatal("a percentile of no samples must not be reported")
	}
}

// TestQuantileTenBeyondRule pins the "at least ten samples beyond" rule at
// its edge: p99 needs 1000 samples, p90 needs 100.
func TestQuantileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{20, 0.50, true},
		{19, 0.50, false},
	} {
		_, beyond, ok := quantile(ramp(tc.n), tc.q)
		if ok != tc.ok {
			t.Errorf("n=%d q=%v: ok=%v (beyond %d), want %v", tc.n, tc.q, ok, beyond, tc.ok)
		}
	}
}

// TestChunkMedian checks that a chunked median is the median of the
// chunks' medians, so one slow chunk moves it little, and that a chunk with
// too few samples beyond its median is refused.
func TestChunkMedian(t *testing.T) {
	us := func(vs ...int64) []int64 {
		out := make([]int64, 0, 20*len(vs))
		for _, v := range vs {
			for k := 0; k < 20; k++ {
				out = append(out, v*1000)
			}
		}
		return out
	}
	var rep report
	rep.addChunkMedian("x", [][]int64{us(100), us(90, 110), us(1000), us(95, 105)})
	if len(rep.problems) != 0 {
		t.Fatalf("unexpected problems: %v", rep.problems)
	}
	// Chunk medians 100, 90, 1000, 95: the median is 97.5, where the
	// median of all samples pooled would be 100.
	if m := rep.metrics[0]; m.value != 97.5 || m.samples != 120 {
		t.Fatalf("chunk median %v over %d samples, want 97.5 over 120", m.value, m.samples)
	}
	rep = report{}
	rep.addChunkMedian("x", [][]int64{us(100), make([]int64, 19)})
	if len(rep.problems) != 1 {
		t.Fatalf("a 19-sample chunk must be refused, got problems %v", rep.problems)
	}
}

func TestTrimmedMean(t *testing.T) {
	if got := trimmedMean([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}, 0.2); got != 4.5 {
		t.Fatalf("trimmed mean %v, want 4.5 (the outliers and the next values dropped)", got)
	}
	if got := trimmedMean([]float64{3}, 0.2); got != 3 {
		t.Fatalf("trimmed mean of one value %v, want 3", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"overlapping children count once", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested child", []span{{Start: 10, End: 50}, {Start: 20, End: 30}}, 60},
		{"child clipped to the parent", []span{{Start: 90, End: 120}, {Start: -5, End: 5}}, 85},
		{"child outside the parent", []span{{Start: 200, End: 300}}, 100},
		{"disjoint children", []span{{Start: 0, End: 10}, {Start: 50, End: 60}, {Start: 95, End: 100}}, 75},
		{"child covers everything", []span{{Start: -10, End: 110}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// bucketOf is the inverse of bucketBounds, as internal/telemetry computes it.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	shift := bits.Len64(u) - 5
	if shift <= 0 {
		return int(u)
	}
	return shift*16 + int(u>>uint(shift))
}

// TestHistogramLayout checks the benchmark's copy of the telemetry bucket
// layout against the histogram itself: every value lands in the bucket
// whose bounds contain it, and the interpolated quantile stays inside the
// bucket the histogram's own Quantile reports.
func TestHistogramLayout(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 33, 1000, 123456, 1 << 30} {
		lo, hi := bucketBounds(bucketOf(v))
		if v < lo || v > hi {
			t.Errorf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
	}
	var h telemetry.Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v, _, ok := histQuantile(s, q)
		upper := float64(s.Quantile(q))
		lo, _ := bucketBounds(bucketOf(int64(upper)))
		if !ok && q < 0.99 {
			t.Errorf("q=%v: not enough samples beyond", q)
		}
		if v < float64(lo) || v > upper {
			t.Errorf("q=%v: interpolated %v outside the histogram's bucket [%d, %v]", q, v, lo, upper)
		}
	}
	if _, _, ok := histQuantile(telemetry.Snapshot{}, 0.5); ok {
		t.Error("an empty histogram must not report a quantile")
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// smoke runs one workload briefly with the output checks on and checks that
// the result line reports exactly the declared metrics with their units.
func smoke(t *testing.T, workload, trace, seconds string, want map[string]string) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "7", "-seconds", seconds, "-trace", trace}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	for name, unit := range want {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", name, m, ok, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
	}
}

// TestLatHist checks the window's histogram against exact nearest-rank
// quantiles: every bucket is at most 1/64 of its value wide, so the
// interpolated figure stays within 2%.
func TestLatHist(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 129, 1000, 123456, 1 << 40, 1 << 50} {
		lo, hi := logLinearBounds(latBucket(v), latSub)
		if latBucket(v) < latBuckets-1 && (v < lo || v > hi) {
			t.Errorf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
	}
	var h latHist
	exact := make([]float64, 0, 20000)
	for i := 1; i <= 20000; i++ {
		ns := int64(i)*37 + int64(i*i%9973) // an uneven spread from 37 ns to ~750 us
		h.observe(ns)
		exact = append(exact, float64(ns)/1e3)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want, _, _ := quantile(exact, q)
		got, n, _, ok := h.quantileUS(q)
		if !ok || n != 20000 {
			t.Fatalf("q=%v: ok=%v n=%d", q, ok, n)
		}
		if d := (got - want) / want; d > 0.02 || d < -0.02 {
			t.Errorf("q=%v: histogram %v, exact %v", q, got, want)
		}
	}
}

// TestSmoke runs every workload for a couple of seconds with the output
// checks on, untraced and traced. Traced failover-mead runs 10 s: its
// traced half must see at least 100 hand-offs (about 30 a second) for
// client.failover_p90_us to have ten samples beyond it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs boot full deployments")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { smoke(t, w.name, "0", "2", endToEnd) })
	}
	for _, w := range workloads {
		name, seconds := w.name, "2"
		if w.leak {
			seconds = "10"
		}
		t.Run(name+"-traced", func(t *testing.T) { smoke(t, name, "1", seconds, perLayer) })
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("an unknown workload must fail")
	}
	if out.Len() != 0 {
		t.Fatalf("no result may be printed, got %q", out.String())
	}
}
