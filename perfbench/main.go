// Command perfbench is ageguard's benchmark: one process that runs one
// workload of the design flow or of the ageguardd service, checks every
// output it gets against a separate computation, and prints one JSON
// result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with spans around every call the
// benchmark makes into a layer, and the result carries the per-layer
// metrics instead. --short runs a tiny version of the workload with
// every check on; --spread k runs the workload k times in child
// processes (seeds 1..k) and prints the median and quartiles of every
// metric. See README.md for the workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ageguard/internal/obs"
)

// workload is one benchmark workload: set-up, a measured window, and
// the checks of everything the window produced.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) error
}

// The workloads stress different layers: flow-cold is SPICE,
// characterization and synthesis from an empty cache; mc-sample is the
// Monte Carlo sample loop on warm sensitivities, where SPICE does no
// work; serve-churn is the daemon's HTTP, JSON and LRU path with
// reloads on misses.
var workloads = []workload{
	{"flow-cold", runFlowCold},
	{"mc-sample", runMCSample},
	{"serve-churn", runServeChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: flow-cold, mc-sample or serve-churn")
		seed    = flag.Uint64("seed", 1, "seed every generated input is drawn from")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 records spans around every layer call and reports per-layer metrics")
		short   = flag.Bool("short", false, "tiny sizes with every check on")
		spread  = flag.Int("spread", 0, "run the workload this many times (seeds 1..k) and print quartiles per metric")
		work    = flag.String("work", ".bench_build", "directory that holds the scratch files of a run")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be at least 1, got %d\n", *seconds)
		os.Exit(2)
	}
	if *spread > 0 {
		if err := runSpread(w.name, *spread, *seconds, *trace == 1, *short, *work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOnce(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short, work: *work})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type options struct {
	seed    uint64
	seconds int
	trace   bool
	short   bool
	work    string
}

// env is what a workload reads its parameters from and records into.
type env struct {
	seed    uint64
	seconds time.Duration
	short   bool
	dir     string // scratch directory of this run, removed at exit

	reg *obs.Registry // every layer of the program records here
	tr  *tracer       // spans around layer calls; records only with --trace 1
	chk checker

	setups []float64 // seconds per complete set-up
	ops    []float64 // seconds per operation of the measured window
	window float64   // seconds the measured window lasted
	failed int       // operations that returned an error
	layer  map[string]float64
	start  snapshot // program counters and Go runtime at the window's start
	end    snapshot // and at its end
}

// windowCounters are the program's registry counters whose advance over
// the measured window the per-layer metrics report per operation.
var windowCounters = []string{
	"spice.transients", "spice.newton.iterations", "spice.steps.rejected",
	"char.cells", "char.cache.misses", "sta.incremental.queries",
	"serve.cache.hits", "serve.cache.misses", "serve.cache.evictions", "serve.batch.unique_fills",
}

// snapshot is the state of the window counters, of SPICE busy time and
// of the Go runtime at one instant.
type snapshot struct {
	counters map[string]int64
	spiceS   float64
	mem      runtime.MemStats
}

func (e *env) snap() snapshot {
	s := snapshot{counters: map[string]int64{}, spiceS: e.reg.Histogram("spice.transient.seconds").Stat().Sum}
	for _, n := range windowCounters {
		s.counters[n] = e.reg.Counter(n).Value()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// windowStart and windowEnd bracket the measured window; the per-layer
// counters and Go runtime figures are deltas between them.
func (e *env) windowStart() { e.start = e.snap() }

func (e *env) windowEnd(wall time.Duration) {
	e.end = e.snap()
	e.window = wall.Seconds()
}

// delta is how far counter name advanced over the window.
func (e *env) delta(name string) float64 {
	return float64(e.end.counters[name] - e.start.counters[name])
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOnce(w workload, o options) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	e := &env{
		seed:    o.seed,
		seconds: time.Duration(o.seconds) * time.Second,
		short:   o.short,
		dir:     dir,
		reg:     obs.NewRegistry(),
		tr:      newTracer(o.trace),
		layer:   map[string]float64{},
	}
	// Measured calls carry no deadline: conc.ParFor reports success for
	// work it skipped once a context is done, so a deadline could turn
	// into silently zero-filled results.
	ctx := obs.With(context.Background(), e.reg)
	if err := w.run(ctx, e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if len(e.ops) == 0 {
		return nil, fmt.Errorf("%s: the measured window completed no operation", w.name)
	}
	for _, msg := range e.chk.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	res := &result{
		Correct:   len(e.chk.failures) == 0,
		Attempted: len(e.ops) + e.failed,
		Failed:    e.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		e.finishLayers()
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{e.layer[m.name], m.unit}
		}
		e.tr.report(os.Stderr)
		return res, nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":     median(e.setups),
		"op_p50_ms":   1e3 * median(e.ops),
		"op_p99_ms":   1e3 * percentile(e.ops, 0.99),
		"ops_per_s":   float64(len(e.ops)) / e.window,
		"peak_rss_mb": rss,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, nil
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of ageguard sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. A layer a workload does
// not exercise reads 0 there (README.md lists which). Counts and Go
// runtime figures are per operation of the measured window, so a faster
// program that completes more operations does not read as worse.
var perLayer = []metricDef{
	{"spice.transients_per_op", "count/op"},
	{"spice.newton_iterations_per_op", "count/op"},
	{"spice.steps_rejected_per_op", "count/op"},
	{"spice.busy_s_per_op", "s/op"},
	{"char.library_s", "s"},
	{"char.cells_per_op", "count/op"},
	{"char.cache_misses_per_op", "count/op"},
	{"char.sensitivities_s", "s"},
	{"char.sample_library_ms", "ms"},
	{"char.sample_alloc_kb", "KB"},
	{"liberty.write_ms", "ms"},
	{"liberty.read_ms", "ms"},
	{"synth.netlist_s", "s"},
	{"sta.incremental_queries_per_op", "count/op"},
	{"sta.analyze_ms", "ms"},
	{"sta.top_paths_ms", "ms"},
	{"sta.batch_cp_ms", "ms"},
	{"core.mc_engine_s", "s"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.cache_hits_per_op", "count/op"},
	{"serve.cache_misses_per_op", "count/op"},
	{"serve.cache_evictions_per_op", "count/op"},
	{"serve.hit_ratio", "ratio"},
	{"serve.batch_unique_fills_per_op", "count/op"},
	{"serve.metrics_kb", "KB"},
	{"client.overhead_p50_ms", "ms"},
	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_cycles_per_op", "count/op"},
	{"go.gc_pause_ms_per_op", "ms/op"},
	{"trace.op_p50_ms", "ms"},
	{"trace.unattributed_pct", "%"},
}

// finishLayers fills the per-layer metrics every workload shares: the
// program's counters and the Go runtime over the window per operation,
// and the span medians.
func (e *env) finishLayers() {
	ops := float64(len(e.ops))
	perOp := func(metric, counter string) { e.layer[metric] = e.delta(counter) / ops }
	perOp("spice.transients_per_op", "spice.transients")
	perOp("spice.newton_iterations_per_op", "spice.newton.iterations")
	perOp("spice.steps_rejected_per_op", "spice.steps.rejected")
	perOp("char.cells_per_op", "char.cells")
	perOp("char.cache_misses_per_op", "char.cache.misses")
	perOp("sta.incremental_queries_per_op", "sta.incremental.queries")
	perOp("serve.cache_hits_per_op", "serve.cache.hits")
	perOp("serve.cache_misses_per_op", "serve.cache.misses")
	perOp("serve.cache_evictions_per_op", "serve.cache.evictions")
	perOp("serve.batch_unique_fills_per_op", "serve.batch.unique_fills")
	if hits, misses := e.delta("serve.cache.hits"), e.delta("serve.cache.misses"); hits+misses > 0 {
		e.layer["serve.hit_ratio"] = hits / (hits + misses)
	}
	e.layer["spice.busy_s_per_op"] = (e.end.spiceS - e.start.spiceS) / ops

	spanMedian := func(metric, span string, scale float64) {
		if d := e.tr.durations(span); len(d) > 0 {
			e.layer[metric] = scale * median(d)
		}
	}
	spanMedian("char.library_s", "char.library", 1)
	spanMedian("char.sensitivities_s", "char.sensitivities", 1)
	spanMedian("liberty.write_ms", "liberty.write", 1e3)
	spanMedian("liberty.read_ms", "liberty.read", 1e3)
	spanMedian("synth.netlist_s", "synth.netlist", 1)
	spanMedian("sta.analyze_ms", "sta.analyze", 1e3)
	spanMedian("sta.top_paths_ms", "sta.top_paths", 1e3)

	m0, m1 := &e.start.mem, &e.end.mem
	e.layer["go.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops
	e.layer["go.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
	e.layer["go.gc_pause_ms_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops
	e.layer["trace.op_p50_ms"] = 1e3 * median(e.ops)
	e.layer["trace.unattributed_pct"] = 100 * e.tr.unattributed()
}

// checker collects failed output checks; any failure makes the run
// incorrect.
type checker struct{ failures []string }

func (c *checker) fail(format string, args ...any) {
	// Bound the list: one systematic fault would otherwise repeat per
	// operation.
	if len(c.failures) < 50 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// repeatSetup runs one complete set-up k times (once in short mode),
// each from nothing, records each duration and keeps the last; the
// earlier ones are torn down, untimed, before the next begins. setup_s
// reports the median, so work moved into set-up shows.
func (e *env) repeatSetup(k int, once func() (teardown func(), err error)) (func(), error) {
	if e.short {
		k = 1
	}
	for i := 0; ; i++ {
		t0 := time.Now()
		teardown, err := once()
		if err != nil {
			return nil, err
		}
		e.setups = append(e.setups, time.Since(t0).Seconds())
		if i == k-1 {
			return teardown, nil
		}
		teardown()
	}
}
