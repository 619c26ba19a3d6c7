package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"esd"
	"esd/internal/telemetry"
)

// pollsPerSlice is where ls3-resume preempts: each segment parks the
// search after this many preemption polls (one per search iteration), so
// the preemption points are the same on every run. The uninterrupted ls3
// search polls about 40,000 times, which makes a chain of four segments
// and three checkpoints.
const pollsPerSlice = 12000

// maxSegments guards against a chain that stops making progress.
const maxSegments = 64

// chainResult is one finished preempt/resume chain; its result and flight
// report are the final segment's.
type chainResult struct {
	synthesis
	checkpoints int
	encodeNS    int64
	decodeNS    int64
	bytes       int
}

// runChain synthesizes t as the job scheduler does: on one engine, each
// segment runs until its preemption point and returns a checkpoint, which
// goes through DecodeCheckpoint and WithResume into the next segment.
// With a tracer, every segment runs with the flight recorder on, and its
// span is split by the growth of the program's cumulative wall counters.
func runChain(ctx context.Context, tr *tracer, parent, req int, t *target) (*chainResult, error) {
	dropCaches()
	o0 := time.Now()
	eng := esd.New()
	out := &chainResult{synthesis: synthesis{open: time.Since(o0)}}
	cpu0 := cpuSeconds()
	start := time.Now()
	var ck *esd.Checkpoint
	var prev telemetry.WallStats
	for seg := 0; ; seg++ {
		if seg == maxSegments {
			return nil, fmt.Errorf("chain still preempted after %d segments", maxSegments)
		}
		polls := 0
		opts := []esd.SynthOption{
			esd.WithSeed(searchSeed), esd.WithBudget(opBudget),
			esd.WithPreempt(func() bool { polls++; return polls > pollsPerSlice }),
		}
		if ck != nil {
			opts = append(opts, esd.WithResume(ck))
		}
		if tr != nil {
			opts = append(opts, esd.WithTelemetry())
		}
		s := tr.begin("esd.Engine.Synthesize", parent, req)
		res, err := eng.Synthesize(ctx, t.prog, t.rep, opts...)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if fr := res.Report(); fr != nil && fr.Wall != nil {
			w := *fr.Wall
			tr.derive(s, []namedDur{
				{"search.self", w.SearchNS - prev.SearchNS},
				{"solver.check", w.SolverNS - prev.SolverNS},
				{"search.solve", w.SolveNS},
				{"search.checkpoint_encode", res.CheckpointNanos},
			})
			prev = w
			out.fr = fr
		}
		if !res.Preempted {
			out.res = res
			break
		}
		out.checkpoints++
		out.encodeNS += res.CheckpointNanos
		out.bytes += len(res.Checkpoint)
		d := tr.begin("esd.DecodeCheckpoint", parent, req)
		d0 := time.Now()
		ck, err = esd.DecodeCheckpoint(res.Checkpoint)
		out.decodeNS += time.Since(d0).Nanoseconds()
		tr.end(d)
		if err != nil {
			return nil, fmt.Errorf("decoding checkpoint: %w", err)
		}
	}
	out.wall = time.Since(start)
	out.cpu = cpuSeconds() - cpu0
	c0 := time.Now()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	out.close = time.Since(c0)
	return out, nil
}

// runLs3Resume: the sequential ls3 search run as a preempt/resume chain —
// the job scheduler's path, where the search layer serializes and
// restores its state. The final execution must be byte-identical to an
// uninterrupted run of the same seed.
func runLs3Resume(r *run) error {
	if err := load(1, 1); err != nil {
		return err
	}
	ctx := context.Background()
	t, err := r.timedSetup(func() (*target, error) { return prepare("ls3", r.cfg.seed) })
	if err != nil {
		return err
	}
	// The uninterrupted reference the chains must reproduce. It is the
	// correctness oracle, so it is neither set-up nor measured.
	ref, err := synthesize(ctx, nil, 0, 0, t, esd.WithSeed(searchSeed), esd.WithBudget(opBudget))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	r.attempted++
	refCheck, err := verify(t, ref.res)
	if err == nil {
		err = ls3Golden.check(refCheck)
	}
	if err != nil {
		r.fail("uninterrupted reference: %v", err)
		return nil
	}
	fmt.Printf("reference wall=%.6fs steps=%d execution=%s\n", ref.wall.Seconds(), refCheck.steps, refCheck.fp)

	var chains []*chainResult
	heap := startHeapSampler(0)
	err = closedLoop(r.budget(), func(int) (time.Duration, error) {
		c, err := runChain(ctx, nil, 0, 0, t)
		if err != nil {
			return 0, err
		}
		heap.cut()
		r.lat = append(r.lat, c.wall.Seconds())
		r.synth = append(r.synth, c.wall.Seconds())
		r.cpu = append(r.cpu, c.cpu)
		chains = append(chains, c)
		return c.wall, nil
	})
	r.peakHeap = heap.Stop()
	if err != nil {
		return err
	}
	if r.cfg.trace {
		tr := newTracer()
		var l layers
		l.promBefore = promSnapshot()
		err := closedLoop(r.budget(), func(i int) (time.Duration, error) {
			var c *chainResult
			_, err := l.tracedOp(tr, i+1, t, func(parent int) (*synthesis, error) {
				var err error
				if c, err = runChain(ctx, tr, parent, i+1, t); err != nil {
					return nil, err
				}
				// The final report's counters cover the whole chain; its
				// total is the last segment's, so substitute the chain's.
				fr := *c.fr
				wall := *fr.Wall
				wall.TotalNS = c.wall.Nanoseconds()
				fr.Wall = &wall
				syn := c.synthesis
				syn.fr = &fr
				return &syn, nil
			})
			if err != nil {
				return 0, err
			}
			l.ck.n += c.checkpoints
			l.ck.encodeMS += float64(c.encodeNS) / 1e6
			l.ck.decodeMS += float64(c.decodeNS) / 1e6
			l.ck.mb += float64(c.bytes) / (1 << 20)
			r.tracedLat = append(r.tracedLat, c.wall.Seconds())
			chains = append(chains, c)
			return c.wall, nil
		})
		if err != nil {
			return err
		}
		spans := tr.snapshot()
		l.publish(r, spans)
		// The untraced chains against the uninterrupted reference.
		r.layer["search.resume_overhead_s"] = median(r.synth) - ref.wall.Seconds()
		if err := r.writeSpans(spans); err != nil {
			return err
		}
	}
	for i, c := range chains {
		r.attempted++
		got, err := verify(t, c.res)
		if err == nil && got != refCheck {
			err = fmt.Errorf("steps %d, execution %s differ from the uninterrupted run's %d, %s", got.steps, got.fp, refCheck.steps, refCheck.fp)
		}
		if err == nil && c.checkpoints == 0 {
			err = fmt.Errorf("chain was never preempted")
		}
		if err != nil {
			r.fail("chain %d: %v", i, err)
		}
	}
	fmt.Fprintf(os.Stderr, "esdbench: %d chains\n", len(chains))
	return nil
}
