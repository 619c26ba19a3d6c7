// Command esdbench is the ESD benchmark. It runs one workload for a fixed
// time, checks every synthesized execution by strict replay, and prints
// the workload's metrics; the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"synth_s": {"value": 9.87, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// program's telemetry off. With --trace 1 they are the per-layer ones:
// the same workload runs once untraced and once traced (spans around the
// calls into each module, flight reports, registry counters), and the
// traced half gives the per-layer numbers. Spans are written under the
// work directory. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics a user of ESD sees, reported on every
// workload. An operation is what the workload's caller waits for: one
// synthesis (ls4-seq, ls1-par2), one preempt/resume chain (ls3-resume) or
// one /synthesize request (serve-restart).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},       // median of the set-up repetitions
	{"synth_s", "s", "lower"},       // median synthesis wall time per operation
	{"cpu_s", "s", "lower"},         // process CPU seconds per operation
	{"peak_heap_mb", "MB", "lower"}, // highest live Go heap per operation (median)
	{"req_p50_ms", "ms", "lower"},   // caller-side latency median
	{"req_tail_ms", "ms", "lower"},  // caller-side latency tail (see tailPercentile)
	{"req_per_s", "1/s", "higher"},  // completed operations per second
}

// perLayer lists the metrics of single layers, reported by the traced run
// on every workload. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"symex.steps", "count", "lower"},
	{"symex.states", "count", "lower"},
	{"symex.step_rate", "1/s", "higher"},
	{"search.forks", "count", "lower"},
	{"search.pruned", "count", "higher"},
	{"search.sheds", "count", "lower"},
	{"search.self_s", "s", "lower"},
	{"search.solve_s", "s", "lower"},
	{"search.worker_busy_frac", "frac", "higher"},
	{"search.dedup_drops", "count", "lower"},
	{"search.parallel_steps", "count", "lower"},
	{"search.checkpoint_encode_ms", "ms", "lower"},
	{"search.checkpoint_decode_ms", "ms", "lower"},
	{"search.checkpoint_mb", "MB", "lower"},
	{"search.resume_overhead_s", "s", "lower"},
	{"solver.queries", "count", "lower"},
	{"solver.s", "s", "lower"},
	{"solver.us_per_query", "us", "lower"},
	{"solver.hit_private", "count", "higher"},
	{"solver.hit_shared", "count", "higher"},
	{"solver.hit_persistent", "count", "higher"},
	{"solver.verify_rejects", "count", "lower"},
	{"solver.hit_ratio", "frac", "higher"},
	{"lang.compile_ms", "ms", "lower"},
	{"cfa.analyze_ms", "ms", "lower"},
	{"dist.build_ms", "ms", "lower"},
	{"dist.lookup_ns", "ns", "lower"},
	{"service.overhead_ms", "ms", "lower"},
	{"service.tail_pct", "pct", "higher"},
	{"jobs.store_put_ms", "ms", "lower"},
	{"jobs.store_puts", "count", "lower"},
	{"pcache.open_ms", "ms", "lower"},
	{"pcache.close_ms", "ms", "lower"},
	{"expr.interner_kb_per_novel_program", "KB", "lower"},
	{"expr.terms", "count", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"telemetry.overhead_frac", "frac", "lower"},
	{"synth.unattributed_s", "s", "lower"},
}

// workloads maps each workload name to its driver. The reasons each one
// exists are in README.md and BENCHMARK.json.
var workloads = map[string]func(*run) error{
	"ls4-seq":       runLs4Seq,
	"ls1-par2":      runLs1Par2,
	"serve-restart": runServeRestart,
	"ls3-resume":    runLs3Resume,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every generated input follows from it")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for scratch state and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1

	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esdbench: %v\n", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esdbench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func execute(cfg config) (*result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 || math.IsNaN(cfg.seconds) {
		return nil, errors.New("--seconds must be positive")
	}
	r := newRun(cfg)
	r.provenance()
	if err := drive(r); err != nil {
		return nil, err
	}
	return r.finish()
}

// load records the workload's load sizing — concurrent callers and search
// workers per synthesis — and refuses a load that would oversubscribe the
// machine: each must fit in the cores the process may use.
func load(callers, parallelism int) error {
	cores := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("load callers=%d parallelism=%d usable_cores=%d\n", callers, parallelism, cores)
	for _, n := range []int{callers, parallelism} {
		if n > cores {
			return fmt.Errorf("refused: load of %d exceeds the %d usable cores (nproc %d, GOMAXPROCS %d)",
				n, cores, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		}
	}
	return nil
}

// run accumulates one workload run's measurements.
type run struct {
	cfg config

	setup []float64 // seconds, one per set-up repetition
	lat   []float64 // caller-side latency per operation, seconds
	synth []float64 // synthesis wall per operation, seconds
	cpu   []float64 // CPU seconds per operation (single-caller workloads)
	// cpuTotal and wall cover the whole measured phase of a multi-caller
	// workload, whose operations overlap.
	cpuTotal, wall float64
	peakHeap       float64

	attempted, failed int
	failures          []string

	// traced-half operation latencies, for the tracing overhead
	tracedLat []float64
	layer     map[string]float64
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, layer: map[string]float64{}}
}

// fail records one failed attempt.
func (r *run) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintf(os.Stderr, "esdbench: FAIL %s\n", msg)
}

// budget returns the length of the measured phase. A traced run splits
// it: the first half runs untraced, the second traced.
func (r *run) budget() time.Duration {
	d := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.cfg.trace {
		d /= 2
	}
	return d
}

func (r *run) provenance() {
	host, _ := os.Hostname()
	fmt.Printf("provenance host=%s nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%g trace=%v\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}

// closedLoop runs op back to back — one caller, the next operation starts
// when the previous returns — until budget is spent. Another operation
// starts only while the time used plus the median operation so far still
// fits, so a run never overshoots by a whole slow operation; at least one
// always runs. op returns the operation's latency.
func closedLoop(budget time.Duration, op func(i int) (time.Duration, error)) error {
	start := time.Now()
	var lats []float64
	for i := 0; ; i++ {
		if i > 0 {
			used := time.Since(start)
			next := time.Duration(median(lats) * float64(time.Second))
			if used+next > budget {
				return nil
			}
		}
		d, err := op(i)
		if err != nil {
			return err
		}
		lats = append(lats, d.Seconds())
	}
}

// finish turns the measurements into the result.
func (r *run) finish() (*result, error) {
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricVal{}}
	if r.attempted == 0 {
		r.attempted = 1
		res.Attempted = 1
		res.Failed++
		r.failures = append(r.failures, "no operation completed")
	}
	res.Correct = res.Failed == 0
	if r.cfg.trace {
		r.layer["telemetry.overhead_frac"] = median(r.tracedLat)/median(r.lat) - 1
		r.layer["service.tail_pct"], _ = tailPercentile(r.lat)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricVal{Value: finite(r.layer[m.Name]), Unit: m.Unit}
		}
	} else {
		pct, _ := tailPercentile(r.lat)
		fmt.Printf("req_tail_percentile %.4g (%d samples)\n", pct, len(r.lat))
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricVal{Value: finite(r.endToEnd(m.Name)), Unit: m.Unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("fail_frac %.6f (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, f := range r.failures {
		fmt.Printf("failure %s\n", f)
	}
	return res, nil
}

func (r *run) endToEnd(name string) float64 {
	switch name {
	case "setup_s":
		return median(r.setup)
	case "synth_s":
		return median(r.synth)
	case "cpu_s":
		if r.wall > 0 {
			return r.cpuTotal / float64(len(r.lat))
		}
		return median(r.cpu)
	case "peak_heap_mb":
		return r.peakHeap / (1 << 20)
	case "req_p50_ms":
		return median(r.lat) * 1e3
	case "req_tail_ms":
		_, v := tailPercentile(r.lat)
		return v * 1e3
	case "req_per_s":
		if r.wall > 0 {
			return float64(len(r.lat)) / r.wall
		}
		var sum float64
		for _, l := range r.lat {
			sum += l
		}
		return float64(len(r.lat)) / sum
	}
	return 0
}

// finite keeps the JSON encodable: a ratio over an empty sample reads 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
