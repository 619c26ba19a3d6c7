package esd_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"esd"
	"esd/internal/dist"
	"esd/internal/expr"
)

// TestSweepBetweenRunsChangesNothing: dropping the process caches between
// two syntheses — the distance tables and every interned term — must not
// change the second run. This is the cold start a benchmark relies on
// when it empties the caches between runs: the sweep really returns the
// interner to its pre-run size, and the rerun finds the same execution
// with the same search effort.
func TestSweepBetweenRunsChangesNothing(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	eng := esd.New()
	run := func() (*esd.Result, []byte) {
		t.Helper()
		res, err := eng.Synthesize(context.Background(), prog, rep,
			esd.WithBudget(time.Minute), esd.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatal("listing1 not reproduced")
		}
		ex, err := res.Execution.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, ex
	}

	termsBefore := expr.InternerStats().Terms
	first, exFirst := run()
	dist.ResetSharedCache()
	expr.Reclaim()
	if terms := expr.InternerStats().Terms; terms > termsBefore {
		t.Errorf("sweep left %d interned terms, want at most the pre-run %d", terms, termsBefore)
	}
	second, exSecond := run()

	a, b := first.Stats, second.Stats
	if a.Steps != b.Steps || a.States != b.States || a.SolverQueries != b.SolverQueries {
		t.Errorf("rerun after the sweep diverged: steps %d/%d states %d/%d solver queries %d/%d",
			a.Steps, b.Steps, a.States, b.States, a.SolverQueries, b.SolverQueries)
	}
	if !bytes.Equal(exFirst, exSecond) {
		t.Errorf("synthesized executions differ across the sweep:\n--- before ---\n%s\n--- after ---\n%s", exFirst, exSecond)
	}
}

// TestReclaimQuiescenceUnderLoad proves the sweep gate: with a goroutine
// hammering expr.TryReclaim, concurrent syntheses must never have the
// interner swept out from under them — every run still reproduces its
// bug, no ErrEpochChanged surfaces, and the race detector (CI runs this
// test under -race) sees no unsynchronized access.
func TestReclaimQuiescenceUnderLoad(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	eng := esd.New(esd.WithMaxConcurrent(4))

	const workers = 3
	const runsPerWorker = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsPerWorker; i++ {
				res, err := eng.Synthesize(context.Background(), prog, rep,
					esd.WithBudget(time.Minute), esd.WithSeed(1))
				if err != nil {
					t.Errorf("synthesize under sweep pressure: %v", err)
					return
				}
				if !res.Found {
					t.Error("listing1 not reproduced under sweep pressure")
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	forced := 0
	for {
		select {
		case <-done:
			// Quiesced now: a sweep must succeed.
			if _, ok := expr.TryReclaim(); !ok {
				t.Error("sweep still gated after all syntheses finished")
			}
			t.Logf("quiescence: %d sweeps interleaved with %d syntheses", forced, workers*runsPerWorker)
			return
		default:
			if _, ok := expr.TryReclaim(); ok {
				forced++
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}
