package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median returns the 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) gives them (its default "exclusive"
// method). It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90}

// tailPercentile returns the highest percentile of the ladder that still
// leaves at least ten of n samples beyond it, or 0 when even the 90th
// does not (fewer than 100 samples): with fewer samples a "tail" is one
// or two unlucky requests, not a property of the system.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's peak resident set (VmHWM) in bytes.
// Each workload runs in its own process, so this is the workload's own
// footprint, set-up included.
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcSamples are the runtime/metrics counters a window reads.
var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// probe is one reading of every process counter a window compares.
type probe struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

// readProbe takes a reading. ReadMemStats stops the world briefly, so
// call it only at window boundaries.
func readProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(gcSamples))
	copy(s, gcSamples)
	metrics.Read(s)
	p := probe{
		wall: time.Now(), cpu: cpuTime(),
		allocBytes: ms.TotalAlloc, allocs: ms.Mallocs,
	}
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = s[2].Value.Float64()
	}
	return p
}

// window is the difference between two probes plus what happened in
// between: how many operations completed or failed, each request's wall
// time, and the CPU per operation of each round.
type window struct {
	begin, end probe
	ops        int64
	failed     int64
	latencies  []float64 // ms, one per request

	// roundCPU holds each round's CPU per operation (µs). Rounds are
	// short, so their median stays put when a burst of contention on a
	// shared host slows a few of them.
	roundCPU []float64
	lastCPU  time.Duration
	lastOps  int64
	peakRSS  int64 // bytes; 0 = read when the run ends
}

// markRound closes a round that brought the window's completed
// operations to ops.
func (w *window) markRound(ops int64) {
	now := cpuTime()
	if w.lastCPU == 0 {
		w.lastCPU = w.begin.cpu
	}
	if d := ops - w.lastOps; d > 0 {
		w.roundCPU = append(w.roundCPU, float64(now-w.lastCPU)/float64(time.Microsecond)/float64(d))
	}
	w.lastCPU, w.lastOps = now, ops
}

// samplePeakRSS fixes the window's peak RSS at the current reading.
// Workloads whose memory grows with the work done call it after a fixed
// amount of work, so a faster program does not read as a larger one.
func (w *window) samplePeakRSS() {
	if rss, err := peakRSSBytes(); err == nil {
		w.peakRSS = rss
	}
}

// openWindow collects garbage left by set-up or an earlier window, so
// the window pays only for its own allocations, then takes the opening
// reading.
func openWindow() *window {
	runtime.GC()
	return &window{begin: readProbe()}
}

func (w *window) close() { w.end = readProbe() }

func (w *window) elapsed() time.Duration { return w.end.wall.Sub(w.begin.wall) }

func (w *window) cpu() time.Duration { return w.end.cpu - w.begin.cpu }

func (w *window) perOp(x float64) float64 {
	if w.ops == 0 {
		return math.NaN()
	}
	return x / float64(w.ops)
}

// cpuUsPerOp is the median of the rounds' CPU per operation, or the
// window's mean when it has fewer than five rounds.
func (w *window) cpuUsPerOp() float64 {
	if len(w.roundCPU) >= 5 {
		return median(append([]float64(nil), w.roundCPU...))
	}
	return w.perOp(float64(w.cpu()) / float64(time.Microsecond))
}

func (w *window) allocBytesPerOp() float64 {
	return w.perOp(float64(w.end.allocBytes - w.begin.allocBytes))
}

func (w *window) allocsPerOp() float64 {
	return w.perOp(float64(w.end.allocs - w.begin.allocs))
}

func (w *window) p50ms() float64 { return median(w.latencies) }

// gcCycles and gcCPUFraction describe the collector's share of the
// window.
func (w *window) gcCycles() float64 { return float64(w.end.gcCycles - w.begin.gcCycles) }

func (w *window) gcCPUFraction() float64 {
	total := w.end.totalCPU - w.begin.totalCPU
	if total <= 0 {
		return 0
	}
	return (w.end.gcCPU - w.begin.gcCPU) / total
}
