// Command perfbench is AlphaWAN's benchmark. One invocation runs one
// workload in its own process and prints, as the last line of its
// standard output, a JSON object with the operations it attempted, how
// many failed, whether every output checked out, and its metrics:
//
//	perfbench --workload coexist-des --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, CPU,
// latency, allocation and peak RSS per operation). With --trace 1 the
// run records spans around the benchmark's calls into each layer and
// prints the per-layer breakdown instead, plus the tracing overhead
// against an untraced window of the same run. README.md says which
// end-to-end metric each layer metric moves, and on which workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/alphawan/alphawan/internal/runner"
)

// config is what a workload's set-up receives: the seed its inputs are
// made from and whether to build the smoke-size instance (tests, and the
// probes of a traced run) instead of the measured one.
type config struct {
	seed  int64
	smoke bool
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// run performs whole rounds of requests until at least seconds have
	// passed, recording operations, request latencies and round ends in
	// w. Failed operations are counted in w.failed; an error means the
	// benchmark itself could not go on.
	run(w *window, tr *tracer, seconds float64) error
	// check verifies the program's outputs after the timed windows.
	check() error
	// layers reports per-layer metrics from a traced window.
	layers(tr *tracer, w *window, m metricSet)
	// close releases sockets and goroutines.
	close()
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	// setups is how many times a measured run sets the workload up; the
	// reported setup_s is their median.
	setups int
	setup  func(cfg config, tr *tracer) (instance, error)
}

// workloads lists the benchmark's workloads in a fixed order.
var workloads = []workload{
	{name: "coexist-des", setups: 5, setup: setupCoexist},
	{name: "city-soa", setups: 5, setup: setupCity},
	{name: "live-ingest", setups: 5, setup: setupLive},
	{name: "replan", setups: 3, setup: setupReplan},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Span names. Each names a call the benchmark makes into a layer.
const (
	spSimBuild spanID = iota
	spSimLearn
	spPlannerPlan
	spSlice
	spCityRequest
	spNodeSend
	spHandle
	spSoaBuild
	spSoaSeal
	spSoaRun
	spGenSend
	spReplan
	spEvaluate
	spRescore
	spSolve
)

var spanNames = []string{
	"sim.build", "sim.learn", "planner.plan", "des.slice", "soa.request", "node.send",
	"netserver.handle", "soa.build", "soa.seal", "soa.run", "gen.send",
	"adaptive.replan", "cp.evaluate", "cp.rescore", "evolve.solve",
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is the last line of the output.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: coexist-des, city-soa, live-ingest or replan")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its spans to (empty = keep them in memory only)")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	printHeader(os.Stdout, wl.name, *seed)
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(wl, config{seed: *seed}, *seconds, *traceDir)
	} else {
		rep, err = runMeasured(wl, config{seed: *seed}, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printHeader writes the run header: what ran, where, and on what.
func printHeader(w io.Writer, name string, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d cpu=%q cores=%d gomaxprocs=%d go=%s commit=%s\n",
		name, seed, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// pinSerial runs the in-process workloads on one worker: their outputs
// are worker-invariant, so they measure per-core cost, which the shared
// two-core machines this runs on report far more steadily than
// multi-worker wall time.
func pinSerial() func() {
	prev := runner.SetMaxWorkers(1)
	return func() { runner.SetMaxWorkers(prev) }
}

// setupMany sets the workload up n times and keeps the last instance,
// returning the median set-up time in seconds.
func setupMany(wl workload, cfg config, n int) (instance, float64, error) {
	var inst instance
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		in, err := wl.setup(cfg, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = in
	}
	return inst, median(times), nil
}

// runMeasured is the untraced run: set up, measure one window, check.
func runMeasured(wl workload, cfg config, seconds float64) (*report, error) {
	defer pinSerial()()
	inst, setupS, err := setupMany(wl, cfg, wl.setups)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	w := openWindow()
	if err := inst.run(w, nil, seconds); err != nil {
		return nil, err
	}
	w.close()
	rep := &report{Attempted: w.ops + w.failed, Failed: w.failed, Metrics: metricSet{}}
	if err := inst.check(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", wl.name, err)
	} else {
		rep.Correct = true
	}
	rss := w.peakRSS
	if rss == 0 {
		if rss, err = peakRSSBytes(); err != nil {
			return nil, err
		}
	}
	m := rep.Metrics
	m.put("setup_s", setupS, "s")
	m.put("cpu_us_per_op", w.cpuUsPerOp(), "us")
	m.put("p50_ms", w.p50ms(), "ms")
	m.put("alloc_bytes_per_op", w.allocBytesPerOp(), "B")
	m.put("allocs_per_op", w.allocsPerOp(), "count")
	m.put("peak_rss_mb", float64(rss)/(1<<20), "MB")
	summarize(os.Stderr, wl.name, w)
	return rep, sanityCheck(rep)
}

// summarize prints the window's latency distribution to standard error:
// the quartiles and the highest percentile with at least ten samples
// beyond it, with the sample count.
func summarize(out io.Writer, name string, w *window) {
	n := len(w.latencies)
	fmt.Fprintf(out, "# %s: %d requests, %d ops in %.2fs", name, n, w.ops, w.elapsed().Seconds())
	if q1, q2, q3, err := quartiles(w.latencies); err == nil {
		fmt.Fprintf(out, ", quartiles %.4f %.4f %.4f ms", q1, q2, q3)
	}
	if p := tailPercentile(n); p > 0 {
		fmt.Fprintf(out, ", p%g %.4f ms", p, percentile(append([]float64(nil), w.latencies...), p))
	}
	fmt.Fprintln(out)
}

// runTraced is the traced run. It sets the workload up under the tracer,
// measures an untraced and a traced window of half the length each (the
// ratio of their CPU per operation is the tracing overhead), and reports
// the per-layer metrics of the traced window. Layers this workload does
// not exercise are filled in from traced smoke-size runs of the
// workloads that do, so every traced run prints the full set.
func runTraced(wl workload, cfg config, seconds float64, dir string) (*report, error) {
	defer pinSerial()()
	tr := newTracer(spanNames)
	inst, err := wl.setup(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	base := openWindow()
	if err := inst.run(base, nil, seconds/2); err != nil {
		return nil, err
	}
	base.close()
	w := openWindow()
	if err := inst.run(w, tr, seconds/2); err != nil {
		return nil, err
	}
	w.close()
	rep := &report{Attempted: base.ops + base.failed + w.ops + w.failed, Failed: base.failed + w.failed, Metrics: metricSet{}}
	checkErr := inst.check()
	m := rep.Metrics
	inst.layers(tr, w, m)
	m.put("runtime.gc_cycles", w.gcCycles(), "count")
	m.put("runtime.gc_cpu_fraction", w.gcCPUFraction(), "ratio")
	m.put("trace.overhead_ratio", w.cpuUsPerOp()/base.cpuUsPerOp(), "ratio")
	if dir != "" {
		path, err := tr.write(dir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, cfg.seed))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "# spans written to %s\n", path)
	}
	for _, other := range workloads {
		if other.name == wl.name || checkErr != nil {
			continue
		}
		if err := probeLayers(other, cfg.seed, m); err != nil {
			checkErr = fmt.Errorf("probe %s: %w", other.name, err)
		}
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", wl.name, checkErr)
	} else {
		rep.Correct = true
	}
	return rep, sanityCheck(rep)
}

// probeSeconds is the window of a smoke-size probe in a traced run.
const probeSeconds = 0.3

// probeLayers runs a smoke-size traced instance of wl and adds the
// per-layer metrics it reports that m does not have yet.
func probeLayers(wl workload, seed int64, m metricSet) error {
	tr := newTracer(spanNames)
	inst, err := wl.setup(config{seed: seed, smoke: true}, tr)
	if err != nil {
		return err
	}
	defer inst.close()
	w := openWindow()
	if err := inst.run(w, tr, probeSeconds); err != nil {
		return err
	}
	w.close()
	if err := inst.check(); err != nil {
		return err
	}
	got := metricSet{}
	inst.layers(tr, w, got)
	for k, v := range got {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	return nil
}

// sanityCheck refuses a report no comparison could use: no operations,
// or a metric that is not a finite number.
func sanityCheck(rep *report) error {
	if rep.Attempted < 1 {
		return errors.New("no operations attempted")
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return nil
}
