package main

import (
	"context"
	"fmt"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/cfa"
	"esd/internal/dist"
	"esd/internal/expr"
	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/replay"
	"esd/internal/report"
	"esd/internal/telemetry"
)

// searchSeed pins the search of the sequential workloads: ls4-seq and
// ls3-resume must repeat their steps and execution exactly on every run,
// so the workload seed drives only the generated inputs (the user-site
// runs that produce the coredump), never the search.
const searchSeed = 1

// opBudget bounds one synthesis; a run that needs longer counts as failed.
const opBudget = 2 * time.Minute

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Compiling an ls app and taking its coredump takes about a
// millisecond, so many repetitions are cheap and steady the median.
const setupReps = 9

// target is a compiled app and the coredump synthesis starts from.
type target struct {
	file, source string
	prog         *esd.Program
	rep          *esd.BugReport
}

func (t *target) mir() *mir.Program      { return t.prog.MIR }
func (t *target) report() *report.Report { return t.rep.R }

// prepare compiles app and takes its coredump with the user-site
// simulator, starting the simulator's schedule seeds from one derived
// from the workload seed. The ls apps fail whatever the schedule, so every
// seed yields the same report; the run still makes it from the seed.
func prepare(appName string, seed int64) (*target, error) {
	a := apps.Get(appName)
	prog, err := lang.Compile(a.Name+".c", a.Source)
	if err != nil {
		return nil, err
	}
	rep, err := coredump(prog, a.UserInputs, a.Usersite, mix(seed, 0)%1_000_000)
	if err != nil {
		return nil, err
	}
	return &target{file: a.Name + ".c", source: a.Source, prog: &esd.Program{MIR: prog}, rep: &esd.BugReport{R: rep}}, nil
}

// timedSetup runs build setupReps times, records each duration, and
// returns the last build's target.
func (r *run) timedSetup(build func() (*target, error)) (*target, error) {
	var t *target
	for i := 0; i < setupReps; i++ {
		dropCaches()
		start := time.Now()
		var err error
		t, err = build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	return t, nil
}

// synthesis is one completed operation as the benchmark saw it.
type synthesis struct {
	res  *esd.Result
	wall time.Duration
	cpu  float64
	// open and close time engine construction and Engine.Close.
	open, close time.Duration
	// fr is the flight report of a traced operation.
	fr *telemetry.Report
}

// synthesize runs one synthesis on a fresh engine after dropping the
// process-wide caches, as a new esdsynth process would. With a tracer it
// runs with the flight recorder on, inside a span split by the program's
// own wall counters.
func synthesize(ctx context.Context, tr *tracer, parent, req int, t *target, opts ...esd.SynthOption) (*synthesis, error) {
	if tr != nil {
		opts = append(opts, esd.WithTelemetry())
	}
	dropCaches()
	o0 := time.Now()
	eng := esd.New()
	out := &synthesis{open: time.Since(o0)}
	cpu0 := cpuSeconds()
	s := tr.begin("esd.Engine.Synthesize", parent, req)
	start := time.Now()
	res, err := eng.Synthesize(ctx, t.prog, t.rep, opts...)
	out.wall = time.Since(start)
	tr.end(s)
	out.cpu = cpuSeconds() - cpu0
	c0 := time.Now()
	cerr := eng.Close()
	out.close = time.Since(c0)
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	out.res = res
	out.fr = res.Report()
	tr.derive(s, derivedParts(out.fr))
	return out, nil
}

// checked is the outcome of the correctness gate on one operation.
type checked struct {
	fp    string
	steps int64
}

// verify applies the correctness gate to a finished synthesis: it must
// have found an execution that strict-replays to the reported failure.
func verify(t *target, res *esd.Result) (checked, error) {
	if !res.Found || res.Execution == nil {
		return checked{}, fmt.Errorf("not found (timed out %v, steps %d)", res.TimedOut, res.Stats.Steps)
	}
	enc, err := res.Execution.JSON()
	if err != nil {
		return checked{}, err
	}
	fp, err := checkExecution(t.mir(), t.report(), enc)
	if err != nil {
		return checked{}, err
	}
	return checked{fp: fp, steps: res.Stats.Steps}, nil
}

// layers accumulates per-layer measurements over the traced operations.
type layers struct {
	ops                                     int
	steps, states, forks, pruned, sheds     float64
	searchNS, solverNS, solveNS             float64
	queries, hitPriv, hitShared, hitPersist float64
	rejects, busyFrac, dedup, parSteps      float64
	allocBytes, gcCPU, cpu                  float64
	compileMS, cfaMS, distMS, lookupNS      []float64
	openMS, closeMS                         []float64
	promBefore                              map[string]float64
	ck                                      ckLayers
}

type ckLayers struct {
	n                  int
	encodeMS, decodeMS float64
	mb                 float64
}

// addReport adds one operation's flight report.
func (l *layers) addReport(fr *telemetry.Report) {
	l.ops++
	l.steps += float64(fr.Steps)
	l.states += float64(fr.States)
	for _, v := range fr.Forks {
		l.forks += float64(v)
	}
	for _, v := range fr.Pruned {
		l.pruned += float64(v)
	}
	l.sheds += float64(fr.Sheds)
	l.queries += float64(fr.Solver.Queries)
	l.dedup += float64(fr.DedupDrops)
	w := fr.Wall
	if w == nil {
		return
	}
	l.searchNS += float64(w.SearchNS)
	l.solverNS += float64(w.SolverNS)
	l.solveNS += float64(w.SolveNS)
	l.hitPriv += float64(w.SolverCacheHits)
	l.hitShared += float64(w.SolverSharedHits)
	l.hitPersist += float64(w.SolverPersistentHits)
	l.rejects += float64(w.SolverVerifyRejects)
	if len(w.Workers) > 0 {
		var busy int64
		for _, wk := range w.Workers {
			busy += wk.BusyNS
			l.parSteps += float64(wk.Steps)
		}
		if w.TotalNS > 0 {
			l.busyFrac += float64(busy) / float64(int64(len(w.Workers))*w.TotalNS)
		}
	} else if w.TotalNS > 0 {
		// One sequential worker is busy whenever it searches or solves.
		l.busyFrac += float64(w.SearchNS+w.SolverNS) / float64(w.TotalNS)
	}
}

// derivedParts splits a synthesis span by the program's own wall counters.
func derivedParts(fr *telemetry.Report) []namedDur {
	if fr == nil || fr.Wall == nil {
		return nil
	}
	return []namedDur{
		{"search.self", fr.Wall.SearchNS},
		{"solver.check", fr.Wall.SolverNS},
		{"search.solve", fr.Wall.SolveNS},
	}
}

// publish writes the accumulated per-layer metrics into r.layer, as
// per-operation means (medians for the outside timings).
func (l *layers) publish(r *run, spans []span) {
	ops := float64(max(l.ops, 1))
	set := func(name string, v float64) { r.layer[name] = v }
	set("symex.steps", l.steps/ops)
	set("symex.states", l.states/ops)
	if l.searchNS > 0 {
		set("symex.step_rate", l.steps/(l.searchNS/1e9))
	}
	set("search.forks", l.forks/ops)
	set("search.pruned", l.pruned/ops)
	set("search.sheds", l.sheds/ops)
	set("search.self_s", l.searchNS/1e9/ops)
	set("search.solve_s", l.solveNS/1e9/ops)
	set("search.worker_busy_frac", l.busyFrac/ops)
	set("search.dedup_drops", l.dedup/ops)
	set("search.parallel_steps", l.parSteps/ops)
	set("solver.queries", l.queries/ops)
	set("solver.s", l.solverNS/1e9/ops)
	if l.queries > 0 {
		set("solver.us_per_query", l.solverNS/1e3/l.queries)
	}
	set("solver.hit_private", l.hitPriv/ops)
	set("solver.hit_shared", l.hitShared/ops)
	set("solver.hit_persistent", l.hitPersist/ops)
	set("solver.verify_rejects", l.rejects/ops)
	if l.promBefore != nil {
		set("solver.hit_ratio", solverHitRatio(promDelta(l.promBefore, promSnapshot())))
	}
	set("lang.compile_ms", median(l.compileMS))
	set("cfa.analyze_ms", median(l.cfaMS))
	set("dist.build_ms", median(l.distMS))
	set("dist.lookup_ns", median(l.lookupNS))
	set("pcache.open_ms", median(l.openMS))
	set("pcache.close_ms", median(l.closeMS))
	set("expr.terms", float64(expr.InternerStats().Terms))
	set("go.alloc_mb", l.allocBytes/(1<<20)/ops)
	if l.cpu > 0 {
		set("go.gc_cpu_frac", l.gcCPU/l.cpu)
	}
	if l.ck.n > 0 {
		n := float64(l.ck.n)
		set("search.checkpoint_encode_ms", l.ck.encodeMS/n)
		set("search.checkpoint_decode_ms", l.ck.decodeMS/n)
		set("search.checkpoint_mb", l.ck.mb/n)
	}
	self := selfTimes(spans)
	set("synth.unattributed_s", self["esd.Engine.Synthesize"].Seconds()/ops)
}

// analyzeOutside times the static layers by calling them directly, as
// the engine does inside Synthesize: compile, call graph and per-goal
// analysis, distance tables and the first distance per goal.
func (l *layers) analyzeOutside(tr *tracer, parent, req int, t *target) (*dist.Calculator, error) {
	s := tr.begin("lang.Compile", parent, req)
	start := time.Now()
	prog, err := lang.Compile(t.file, t.source)
	l.compileMS = append(l.compileMS, ms(time.Since(start)))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	goals := t.report().Goals()

	s = tr.begin("cfa.analyze", parent, req)
	start = time.Now()
	cg := cfa.BuildCallGraph(prog)
	for _, g := range goals {
		if _, err := cfa.AnalyzeWith(cg, g); err != nil {
			tr.end(s)
			return nil, err
		}
	}
	l.cfaMS = append(l.cfaMS, ms(time.Since(start)))
	tr.end(s)

	s = tr.begin("dist.build", parent, req)
	start = time.Now()
	calc := dist.NewCalculatorWith(cg)
	entry := []mir.Loc{{Fn: "main", Block: prog.Funcs["main"].Blocks[0].ID}}
	for _, g := range goals {
		calc.StateDistance(entry, g)
		calc.SyncDistance(entry, g)
	}
	l.distMS = append(l.distMS, ms(time.Since(start)))
	tr.end(s)
	return calc, nil
}

// maxLookupStacks bounds how many replayed stacks dist.lookup_ns times.
const maxLookupStacks = 20000

// timeLookups replays the found execution, collects the scheduled
// thread's stack at every step, and times a cached StateDistance over
// them (a first pass fills the tables, the second is timed).
func (l *layers) timeLookups(tr *tracer, parent, req int, t *target, calc *dist.Calculator, ex *esd.Execution) error {
	if ex == nil {
		return nil
	}
	s := tr.begin("dist.lookup", parent, req)
	defer tr.end(s)
	p, err := replay.NewPlayer(t.mir(), ex.E, replay.Strict)
	if err != nil {
		return err
	}
	var stacks [][]mir.Loc
	for !p.Done() && len(stacks) < maxLookupStacks {
		st := p.State()
		if th := st.Thread(st.Cur); th != nil && len(th.Frames) > 0 {
			stacks = append(stacks, th.Stack())
		}
		if err := p.StepInstr(); err != nil {
			return err
		}
	}
	if len(stacks) == 0 {
		return nil
	}
	goal := t.report().Goals()[0]
	var sink int64
	for _, st := range stacks {
		sink += calc.StateDistance(st, goal)
	}
	start := time.Now()
	for _, st := range stacks {
		sink += calc.StateDistance(st, goal)
	}
	l.lookupNS = append(l.lookupNS, float64(time.Since(start).Nanoseconds())/float64(len(stacks)))
	_ = sink
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracedOp is one traced operation: the static layers timed from
// outside, then the synthesis with the flight recorder on, its wall split
// by the program's counters, then the distance lookups over the found
// execution. run makes the synthesis (or ls3-resume's chain) inside the
// operation's span.
func (l *layers) tracedOp(tr *tracer, req int, t *target, run func(parent int) (*synthesis, error)) (*synthesis, error) {
	root := tr.begin("op", 0, req)
	defer tr.end(root)
	calc, err := l.analyzeOutside(tr, root, req, t)
	if err != nil {
		return nil, err
	}
	g0 := readGo()
	syn, err := run(root)
	if err != nil {
		return nil, err
	}
	g1 := readGo()
	l.allocBytes += g1.allocBytes - g0.allocBytes
	l.gcCPU += g1.gcCPU - g0.gcCPU
	l.cpu += g1.totalCPU - g0.totalCPU
	l.openMS = append(l.openMS, ms(syn.open))
	l.closeMS = append(l.closeMS, ms(syn.close))
	if syn.fr != nil {
		l.addReport(syn.fr)
	}
	if err := l.timeLookups(tr, root, req, t, calc, syn.res.Execution); err != nil {
		return nil, err
	}
	return syn, nil
}

// sequentialWorkload drives a workload whose caller runs one synthesis at
// a time: an untraced closed loop (the end-to-end numbers), and in a
// traced run a second, traced loop (the per-layer numbers).
type sequentialWorkload struct {
	r *run
	t *target
	// opts gives the synthesis options of operation i.
	opts func(i int) []esd.SynthOption
	// golden, when set, is the execution every operation must reproduce;
	// otherwise every execution that strict-replays passes.
	golden *golden
}

func (w *sequentialWorkload) drive(ctx context.Context) error {
	r := w.r
	var results []*esd.Result
	heap := startHeapSampler(0)
	err := closedLoop(r.budget(), func(i int) (time.Duration, error) {
		syn, err := synthesize(ctx, nil, 0, 0, w.t, w.opts(i)...)
		if err != nil {
			return 0, err
		}
		heap.cut()
		r.lat = append(r.lat, syn.wall.Seconds())
		r.synth = append(r.synth, syn.wall.Seconds())
		r.cpu = append(r.cpu, syn.cpu)
		results = append(results, syn.res)
		return syn.wall, nil
	})
	r.peakHeap = heap.Stop()
	if err != nil {
		return err
	}
	if r.cfg.trace {
		tr := newTracer()
		var l layers
		l.promBefore = promSnapshot()
		n := len(results)
		err := closedLoop(r.budget(), func(i int) (time.Duration, error) {
			syn, err := l.tracedOp(tr, i+1, w.t, func(parent int) (*synthesis, error) {
				return synthesize(ctx, tr, parent, i+1, w.t, w.opts(n+i)...)
			})
			if err != nil {
				return 0, err
			}
			r.tracedLat = append(r.tracedLat, syn.wall.Seconds())
			results = append(results, syn.res)
			return syn.wall, nil
		})
		if err != nil {
			return err
		}
		spans := tr.snapshot()
		l.publish(r, spans)
		if err := r.writeSpans(spans); err != nil {
			return err
		}
	}
	for i, res := range results {
		r.attempted++
		c, err := verify(w.t, res)
		if err == nil && w.golden != nil {
			err = w.golden.check(c)
		}
		if err != nil {
			r.fail("operation %d: %v", i, err)
		}
	}
	return nil
}

// writeSpans writes the traced run's spans under the work directory.
func (r *run) writeSpans(spans []span) error {
	path := fmt.Sprintf("%s/traces/%s-seed%d.json", r.cfg.workDir, r.cfg.workload, r.cfg.seed)
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans %s (%d)\n", path, len(spans))
	return nil
}

// golden is what a sequential synthesis at searchSeed must reproduce on
// every run: its steps and its execution's fingerprint. A change to either
// is a behaviour change of the search, not a speed change, and fails the
// run.
type golden checked

var (
	ls4Golden = golden{steps: 9733379, fp: "0bc75fb9925c0ff5"}
	ls3Golden = golden{steps: 1259433, fp: "da3d33df70f67c98"}
)

func (g golden) check(c checked) error {
	if c.steps != g.steps || c.fp != g.fp {
		return fmt.Errorf("steps %d, execution %s; want steps %d, execution %s", c.steps, c.fp, g.steps, g.fp)
	}
	return nil
}

// runLs4Seq: one sequential ls4 synthesis per operation on a fresh engine
// with cold process caches and no cache directory — the esdsynth user's
// cold run.
func runLs4Seq(r *run) error {
	if err := load(1, 1); err != nil {
		return err
	}
	t, err := r.timedSetup(func() (*target, error) { return prepare("ls4", r.cfg.seed) })
	if err != nil {
		return err
	}
	w := &sequentialWorkload{r: r, t: t,
		opts: func(int) []esd.SynthOption {
			return []esd.SynthOption{esd.WithSeed(searchSeed), esd.WithBudget(opBudget)}
		},
		golden: &ls4Golden,
	}
	return w.drive(context.Background())
}

// par2Workers is ls1-par2's frontier parallelism.
const par2Workers = 2

// runLs1Par2: frontier-parallel ls1 at WithParallelism(2), one fresh
// engine per operation, each with a search seed derived from the workload
// seed. A parallel run's length varies with how the two workers
// interleave, so synth_s is the median over the run's seeds. ls1 rather
// than ls3: an ls3 run varies severalfold, and the dozen ls3 runs that fit
// in a measured phase gave medians 17% apart from seed to seed, where the
// hundred-odd ls1 runs agree closely.
func runLs1Par2(r *run) error {
	if err := load(1, par2Workers); err != nil {
		return err
	}
	t, err := r.timedSetup(func() (*target, error) { return prepare("ls1", r.cfg.seed) })
	if err != nil {
		return err
	}
	w := &sequentialWorkload{r: r, t: t,
		opts: func(i int) []esd.SynthOption {
			return []esd.SynthOption{esd.WithSeed(mix(r.cfg.seed, i+1)), esd.WithParallelism(par2Workers), esd.WithBudget(opBudget)}
		},
	}
	return w.drive(context.Background())
}
