package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 20}, {90, 46}, {100, 50}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5}, [3]float64{1.5, 4, 5.5}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99}, {10000000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCPUProbeCountsWork(t *testing.T) {
	c0 := cpuTime()
	deadline := time.Now().Add(60 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		x += math.Sqrt(x + 1)
	}
	if d := cpuTime() - c0; d < 30*time.Millisecond {
		t.Errorf("60 ms of spinning measured %v of CPU (x=%v)", d, x)
	}
}

var sink []byte

func TestPeakRSSProbeSeesAllocation(t *testing.T) {
	r0, err := peakRSSBytes()
	if err != nil {
		t.Fatal(err)
	}
	sink = make([]byte, 48<<20)
	for i := 0; i < len(sink); i += 4096 {
		sink[i] = 1
	}
	r1, err := peakRSSBytes()
	if err != nil {
		t.Fatal(err)
	}
	sink = nil
	if r1-r0 < 32<<20 {
		t.Errorf("touching 48 MB raised VmHWM by %d bytes", r1-r0)
	}
}

func TestWindowCPUPerOpUsesRoundMedian(t *testing.T) {
	w := &window{ops: 100}
	w.end.cpu = 1000 * time.Microsecond
	if got := w.cpuUsPerOp(); got != 10 {
		t.Errorf("mean CPU per op = %v, want 10", got)
	}
	w.roundCPU = []float64{5, 7, 6, 40, 6}
	if got := w.cpuUsPerOp(); got != 6 {
		t.Errorf("median of rounds = %v, want 6", got)
	}
}

// benchmarkFile reads the metric names BENCHMARK.json promises.
func benchmarkFile(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func sameNames(t *testing.T, what string, m metricSet, want []string) {
	t.Helper()
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s prints %v, BENCHMARK.json lists %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s prints %v, BENCHMARK.json lists %v", what, got, want)
		}
	}
}

// TestSmokeRuns runs every workload at its smoke size, measured and
// traced, on two seeds: each must pass its own correctness checks, fail
// no operation, and print exactly the metrics BENCHMARK.json lists.
func TestSmokeRuns(t *testing.T) {
	e2e, layers := benchmarkFile(t)
	for _, wl := range workloads {
		for _, seed := range []int64{1, 2} {
			cfg := config{seed: seed, smoke: true}
			rep, err := runMeasured(wl, cfg, 0.3)
			if err != nil {
				t.Fatalf("%s seed %d: %v", wl.name, seed, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s seed %d: correct %v, %d of %d failed", wl.name, seed, rep.Correct, rep.Failed, rep.Attempted)
			}
			sameNames(t, wl.name+" measured run", rep.Metrics, e2e)
			for _, name := range e2e {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s seed %d: %s = %v, want > 0", wl.name, seed, name, rep.Metrics[name].Value)
				}
			}
		}
		rep, err := runTraced(wl, config{seed: 3, smoke: true}, 0.4, t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s traced: correct %v, %d failed", wl.name, rep.Correct, rep.Failed)
		}
		sameNames(t, wl.name+" traced run", rep.Metrics, layers)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(spanNames)
	parent := tr.begin(spSlice, nil, 1)
	child := tr.begin(spNodeSend, &parent, 1)
	time.Sleep(2 * time.Millisecond)
	cd := tr.end(&child)
	pd := tr.end(&parent)
	if parent.child != cd || pd < cd {
		t.Errorf("parent of %d ns holds %d ns of children, want the child's %d", pd, parent.child, cd)
	}
	if tr.count(spNodeSend) != 1 || tr.totalNs(spNodeSend) != cd {
		t.Errorf("child totals %d/%d, want 1/%d", tr.count(spNodeSend), tr.totalNs(spNodeSend), cd)
	}
	dir := t.TempDir()
	path, err := tr.write(dir, "spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"name":"node.send","id":2,"parent":1,"req":1`; !strings.Contains(string(b), want) {
		t.Errorf("span dump lacks %s:\n%s", want, b)
	}
}
