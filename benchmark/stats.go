package main

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"mead/internal/telemetry"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it describes a handful of outliers,
// not the tail, so the benchmark refuses to report it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) and the
// number of samples strictly beyond that rank. ok is false when fewer than
// minBeyond samples lie beyond it (or there are no samples).
func quantile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// durationsUS converts nanosecond samples to sorted microseconds.
func durationsUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// median returns the middle of vs (mean of the two middles for even n).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// trimmedMean averages vs without its lowest and highest trim share. Boot
// times are quantized by the deployment's millisecond polling; the mean of
// the middle moves continuously where a median jumps between quanta.
func trimmedMean(vs []float64, trim float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := int(trim * float64(len(s)))
	s = s[cut : len(s)-cut]
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// histDelta subtracts an earlier snapshot of the same histogram, leaving
// the samples observed between the two.
func histDelta(after, before telemetry.Snapshot) telemetry.Snapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	return d
}

// histQuantile reads the q-quantile of a telemetry histogram snapshot,
// interpolating inside the bucket that holds the rank. The histogram's own
// Quantile reports bucket upper bounds, which repeat exactly from run to
// run; interpolation keeps the figure continuous.
func histQuantile(s telemetry.Snapshot, q float64) (v float64, beyond uint64, ok bool) {
	return interpolate(s.Buckets[:], func(i int) (int64, int64) {
		lo, hi := bucketBounds(i)
		if i == len(s.Buckets)-1 || hi > int64(s.Max) {
			hi = int64(s.Max)
		}
		return lo, hi
	}, q)
}

// interpolate returns the q-quantile of a bucketed distribution, assuming
// the samples of the bucket that holds the rank spread evenly over its
// bounds, and the number of samples beyond that rank.
func interpolate(counts []uint64, bounds func(int) (lo, hi int64), q float64) (v float64, beyond uint64, ok bool) {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0, 0, false
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bounds(i)
			frac := (float64(rank-cum) - 0.5) / float64(n)
			beyond = total - rank
			return float64(lo) + frac*float64(hi-lo), beyond, beyond >= minBeyond
		}
		cum += n
	}
	return 0, 0, false
}

// bucketBounds returns the value range [lo, hi] of bucket idx of a
// internal/telemetry histogram: exact buckets below 16 ns, then 16 linear
// sub-buckets per power of two.
func bucketBounds(idx int) (lo, hi int64) { return logLinearBounds(idx, 16) }

// logLinearBounds is the value range of bucket idx in a log-linear layout
// with sub linear sub-buckets per power of two.
func logLinearBounds(idx, sub int) (lo, hi int64) {
	if idx < sub {
		return int64(idx), int64(idx)
	}
	shift := idx/sub - 1
	t := int64(idx - shift*sub)
	return t << uint(shift), (t+1)<<uint(shift) - 1
}

// latHist is a concurrent latency histogram in nanoseconds, log-linear with
// latSub sub-buckets per power of two (buckets at most 1/64 of their value
// wide). The timed window keeps one per slice, so memory does not grow with
// the number of calls.
type latHist struct {
	counts [latBuckets]atomic.Uint64
}

const (
	latSub     = 64
	latShift   = 36 // the top bucket starts near 2^42 ns, over an hour
	latBuckets = (latShift + 2) * latSub
)

func latBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	u := uint64(ns)
	shift := bits.Len64(u) - 7 // keep the top 7 bits: 64 sub-buckets
	if shift <= 0 {
		return int(u)
	}
	if shift > latShift {
		return latBuckets - 1
	}
	return shift*latSub + int(u>>uint(shift))
}

func (h *latHist) observe(ns int64) { h.counts[latBucket(ns)].Add(1) }

// quantileUS returns the interpolated q-quantile in microseconds.
func (h *latHist) quantileUS(q float64) (us float64, n, beyond uint64, ok bool) {
	counts := make([]uint64, latBuckets)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		n += counts[i]
	}
	v, beyond, ok := interpolate(counts, func(i int) (int64, int64) { return logLinearBounds(i, latSub) }, q)
	return v / 1e3, n, beyond, ok
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memStats is the subset of runtime.MemStats the benchmark reports.
type memStats struct {
	mallocs uint64
	gcs     uint32
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{mallocs: m.Mallocs, gcs: m.NumGC}
}

// fsType names the filesystem holding dir (statfs magic numbers).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// hostRecord describes where a result was measured.
type hostRecord struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	StateFS    string `json:"state_fs"`
}

func newHostRecord(seed int64, stateRoot string) hostRecord {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return hostRecord{Seed: seed, StateFS: "unknown"}
	}
	return hostRecord{
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateFS:    fsType(stateRoot),
	}
}
