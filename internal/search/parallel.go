package search

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"esd/internal/dist"
	"esd/internal/sched"
	"esd/internal/solver"
	"esd/internal/symex"
	"esd/internal/telemetry"
)

// This file implements the search driver: the §3.4 priority frontier
// sharded across n workers (Options.Parallelism, at least 1).
//
// Division of labor:
//
//   - The plan (goals, analyses, distance tables, queue layout) is built
//     once and shared read-only; the interned term store is concurrent,
//     so states forked by different workers share pointer-equal terms.
//   - Each worker is a searcher with its own symex VM (with a disjoint
//     state-ID range, so the priority tie-break stays total), solver,
//     scheduling-policy instance, and race detector. It loops: take the
//     globally best state from the shards, run one quantum, place the
//     scored forks and survivor round-robin into the shards, sync the
//     run's counters, and shed when the run is over its state budget.
//   - With n > 1, a shared dedup set drops states whose decision history
//     (path condition + schedule) another worker already admitted — the
//     redundancy source is snapshot activation, where sibling states
//     carry the same K_S snapshots.
//   - The first worker to reach a goal state wins and cancels the rest
//     through the run-scoped context; budget exhaustion and interner
//     epoch violations propagate the same way.
//
// Determinism: one worker over one shard is the sequential search. It
// runs on the caller's goroutine, draws the same random numbers in the
// same order as the sequential algorithm, and records its trace on the
// pick-count cadence, so a seed replays byte for byte and a preempted run
// can be checkpointed and resumed (checkpoint.go). With n > 1 the
// outcome depends on the OS scheduler, so the run makes no replay
// promise; the contract is that the winning state's execution file
// replays strictly.

// parallelSeedStride separates worker rng streams; any odd constant works,
// a prime keeps accidental stream overlap improbable.
const parallelSeedStride = 7919

// frontierShard is one lock-protected slice of the run's frontier.
type frontierShard struct {
	mu sync.Mutex
	f  *queueFrontier
}

// searchRun is the shared coordination state of one search.
type searchRun struct {
	opts   Options
	pl     *plan
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time

	workers []*searcher
	shards  []*frontierShard
	// shedBudget is the global live-state budget (n × MaxStates); shedMu
	// serializes the all-shard shed that runs when a worker finds the run
	// over it. The budget is work-conserving: no shard has a private cap,
	// so round-robin placement momentarily loading one shard never sheds
	// while the run as a whole has headroom.
	shedBudget int64
	shedMu     sync.Mutex
	// dedup is the cross-worker dedup set; nil with one worker, where
	// nothing can duplicate another worker's admissions.
	dedup *dedupSet

	rr         atomic.Uint64 // round-robin insertion cursor
	live       atomic.Int64  // states currently sitting in shards
	busy       atomic.Int64  // workers currently holding a state
	steps      atomic.Int64  // executed instructions, all workers
	states     atomic.Int64  // states created, all workers
	queries    atomic.Int64  // solver queries, all workers
	bestFit    atomic.Int64
	maxDepth   atomic.Int64
	sheds      atomic.Int64
	dedupDrops atomic.Int64

	// mu serializes the Recorder and OnProgress, neither of which is safe
	// for concurrent use. allPicks drives the deterministic frontier-sample
	// cadence (counted only while a Recorder is attached); lastProgress is
	// the elapsed time of the last periodic progress event.
	mu           sync.Mutex
	allPicks     atomic.Int64
	lastProgress atomic.Int64

	// Idle-worker wakeup. A worker that scans every shard empty sleeps on
	// idleCond instead of spinning; inserts is a monotone sequence number
	// bumped on every placement, and waiters lets signalers skip the lock
	// when nobody sleeps. The no-missed-wakeup argument is ordering:
	// a waiter captures inserts BEFORE its scan and re-checks it under
	// idleMu after incrementing waiters; a signaler bumps inserts before
	// reading waiters. Go atomics are sequentially consistent, so either
	// the signaler sees the waiter (and broadcasts) or the waiter sees
	// the new sequence number (and skips the wait).
	idleMu   sync.Mutex
	idleCond *sync.Cond
	inserts  atomic.Uint64
	waiters  atomic.Int64

	done     atomic.Bool
	timedOut atomic.Bool
	// preempted is set when Options.Preempt stopped the run (one worker
	// only: Synthesize clears Preempt for n > 1).
	preempted bool

	winnerMu sync.Mutex
	winner   *symex.State

	errOnce sync.Once
	err     error
}

// newSearchRun builds the run and its n workers over the plan: one shard
// per worker, and per worker a solver (opts.Solver for worker 0 when set,
// else one from opts.Solvers, else a fresh one) attached to the request's
// shared and persistent fact layers, a private VM, and a seed offset by
// the worker index. Call release when the run is over.
func newSearchRun(ctx context.Context, pl *plan, opts Options, n int, start time.Time) *searchRun {
	runCtx, cancel := context.WithCancel(ctx)
	r := &searchRun{
		opts:       opts,
		pl:         pl,
		ctx:        runCtx,
		cancel:     cancel,
		start:      start,
		shards:     make([]*frontierShard, n),
		shedBudget: int64(n) * int64(opts.MaxStates),
	}
	if n > 1 {
		r.dedup = newDedupSet()
	}
	r.idleCond = sync.NewCond(&r.idleMu)
	r.bestFit.Store(dist.Infinite)
	r.lastProgress.Store(-int64(opts.ProgressInterval)) // the first pick reports
	for i := range r.shards {
		r.shards[i] = &frontierShard{f: newQueueFrontier(opts.Strategy, pl.schedGuided, len(pl.queues))}
	}
	for i := 0; i < n; i++ {
		sol := opts.Solver
		var put func()
		if i > 0 || sol == nil {
			if opts.Solvers != nil {
				ps := opts.Solvers.Get()
				sol = ps
				put = func() { opts.Solvers.Put(ps) }
			} else {
				sol = solver.New()
			}
		}
		// Attach the request's shared fact layer: each worker's solver
		// stays single-threaded, but on a private-cache miss it consults
		// (and publishes into) the concurrency-safe shared cache, so the
		// workers stop re-solving each other's components. The persistent
		// cross-run tier attaches below it. release detaches both.
		if opts.SharedCache != nil {
			sol.Shared = opts.SharedCache
		}
		if opts.PersistCache != nil {
			sol.Persist = opts.PersistCache
		}
		eng, det := pl.newVM(runCtx, opts, sol)
		// Disjoint ID ranges keep state and object IDs unique across
		// workers (states migrate between engines through the shards).
		eng.SetIDBase(i << 40)
		wopts := opts
		wopts.Seed = opts.Seed + int64(i)*parallelSeedStride
		s := newSearcher(pl, wopts, eng, sol)
		s.id, s.r, s.det, s.putSolver = i, r, det, put
		r.workers = append(r.workers, s)
	}
	return r
}

// release detaches the fact layers before any solver outlives the run
// (pooled or caller-owned: a stale attachment would leak this request's
// facts into the next run and pin a dead cache alive) and returns pooled
// solvers.
func (r *searchRun) release() {
	r.cancel()
	for _, s := range r.workers {
		if r.opts.SharedCache != nil {
			s.sol.Shared = nil
		}
		if r.opts.PersistCache != nil {
			s.sol.Persist = nil
		}
		if s.putSolver != nil {
			s.putSolver()
		}
	}
}

// runWorkers runs every worker to the end of the search: worker 0 on the
// calling goroutine, the rest on their own.
func (r *searchRun) runWorkers() {
	var wg sync.WaitGroup
	for _, s := range r.workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(s)
		}()
	}
	r.work(r.workers[0])
	wg.Wait()
}

// work is one worker's life: take a state, run a quantum (which places
// forks and survivors back through place), sync the shared counters, shed
// if the run is over budget, repeat.
func (r *searchRun) work(s *searcher) {
	// A worker only exits when the run is ending (found, budget, cancel,
	// exhaustion, preemption, hard error); wake any sleeping peer so it
	// re-observes the terminal condition instead of waiting for an insert
	// that will never come.
	defer r.wakeAll()
	searchWorkers.Add(1)
	defer searchWorkers.Add(-1)
	for {
		st := r.take(s)
		if st == nil {
			return
		}
		t0 := time.Now()
		found, err := s.quantum(st)
		s.busyNS += time.Since(t0).Nanoseconds()
		r.sync(s)
		r.busy.Add(-1)
		if err != nil {
			if errors.Is(err, symex.ErrEpochChanged) {
				// Not a scheduling outcome: the interner was swept under
				// this live run, every held term is suspect. Surface it.
				r.errOnce.Do(func() { r.err = err })
				r.finish()
			}
			// ErrInterrupted: the VM observed the cancelled run context
			// mid-quantum; collect classifies the outcome.
			return
		}
		if found != nil {
			r.setWinner(s, found)
			return
		}
		if r.live.Load() > r.shedBudget {
			r.shed(s)
		}
	}
}

// finish ends the run for every worker.
func (r *searchRun) finish() {
	r.done.Store(true)
	r.cancel()
}

// take pops the next state for s. It returns nil when the run should
// stop. The stop rules are checked in order at every pick: the search
// space is exhausted (every shard empty while no worker holds a state
// that could refill them), the context is done, the budget (wall time or
// MaxSteps) is spent, Preempt asks for a checkpoint. Preemption is thus
// polled between quanta only, so a checkpoint never splits one. Then the
// progress and trace hooks run, and the pick itself. On success the
// worker is counted busy (incremented before the pop, so a momentarily
// empty frontier with a state in flight never reads as exhaustion). A
// worker that finds every shard empty while peers are still running
// sleeps on idleCond until an insert or a terminal condition wakes it.
func (r *searchRun) take(s *searcher) *symex.State {
	for {
		// Capture the insert sequence before scanning: any insert after
		// this point bumps it, so the wait below either sees the bump and
		// rescans or provably scanned a frontier that already contained
		// every insert it could have missed.
		seq := r.inserts.Load()
		if r.done.Load() {
			return nil
		}
		if r.live.Load() == 0 && r.busy.Load() == 0 {
			return nil // exhausted; work's deferred wakeAll tells the peers
		}
		if r.ctx.Err() != nil {
			return nil
		}
		now := time.Now()
		if r.budgetExceeded(now) {
			r.timedOut.Store(true)
			r.finish()
			return nil
		}
		if r.opts.Preempt != nil && r.opts.Preempt() {
			r.preempted = true
			r.done.Store(true)
			return nil
		}
		if r.live.Load() > 0 {
			r.observe(now)
			r.busy.Add(1)
			if st := r.pick(s); st != nil {
				s.taken++
				r.live.Add(-1)
				return st
			}
			r.busy.Add(-1)
		}
		r.idleMu.Lock()
		r.waiters.Add(1)
		for r.inserts.Load() == seq && !r.done.Load() && r.ctx.Err() == nil &&
			!(r.live.Load() == 0 && r.busy.Load() == 0) {
			r.idleCond.Wait()
		}
		r.waiters.Add(-1)
		r.idleMu.Unlock()
	}
}

// pick pops one state for s in the global search order. ESD picks choose
// a virtual queue with the worker's rng, peek every shard's best key in
// that queue, and pop from the shard holding the minimum. Every live
// state is in every queue's heap, so one queue's shard heads cover the
// whole frontier, and with one shard this is exactly one draw and one
// pop per pick. With n > 1 the peek-then-pop window is racy — a peer can
// take the peeked state first — but the pop then takes that shard's
// next-best, so the order stays approximately global, and the loop
// rescans if the shard drained entirely.
//
// Every agingPeriod-th ESD pick of a worker (schedule-guided searches
// only) drains the first non-empty FIFO in ring order instead —
// oldest-of-one-shard rather than oldest-globally, which is enough for
// the guarantee the FIFO exists for: every state is eventually run.
// DFS/RandomPath have no cross-shard order to preserve: they take from
// the first non-empty shard in ring order.
func (r *searchRun) pick(s *searcher) *symex.State {
	n := len(r.shards)
	if r.opts.Strategy != StrategyESD {
		for i := 0; i < n; i++ {
			shard := r.shards[(s.id+i)%n]
			shard.mu.Lock()
			st := shard.f.pickPool(s.rng)
			shard.mu.Unlock()
			if st != nil {
				return st
			}
		}
		return nil
	}
	if r.pl.schedGuided {
		s.picks++
		if s.picks%agingPeriod == 0 {
			for i := 0; i < n; i++ {
				shard := r.shards[(s.id+i)%n]
				shard.mu.Lock()
				st := shard.f.pickFIFO()
				shard.mu.Unlock()
				if st != nil {
					s.agingPicks++
					return st
				}
			}
			// Every FIFO empty: fall through to a fitness pick.
		}
	}
	q := s.rng.Intn(len(r.pl.queues))
	for {
		best := -1
		var bestKey esdKey
		for i := 0; i < n; i++ {
			idx := (s.id + i) % n
			shard := r.shards[idx]
			shard.mu.Lock()
			key, ok := shard.f.peekQueue(q)
			shard.mu.Unlock()
			if ok && (best < 0 || key.less(bestKey)) {
				best, bestKey = idx, key
			}
		}
		if best < 0 {
			return nil
		}
		shard := r.shards[best]
		shard.mu.Lock()
		st := shard.f.popQueue(q)
		shard.mu.Unlock()
		if st != nil {
			return st
		}
	}
}

// place scores a freshly produced state on the producing worker's
// searcher (from its distance vector dv when the prune gate computed one),
// drops it if another worker already admitted an equivalent decision
// history, and otherwise inserts it into the next shard round-robin.
func (r *searchRun) place(s *searcher, st *symex.State, dv []int64) {
	keys := s.scoreState(st, dv)
	// Propagate the worker's improving final-goal fitness to the run.
	for {
		cur := r.bestFit.Load()
		if s.bestFit >= cur || r.bestFit.CompareAndSwap(cur, s.bestFit) {
			break
		}
	}
	if r.dedup != nil && r.dedup.seen(stateKey(st)) {
		r.dedupDrops.Add(1)
		return
	}
	for {
		cur := r.maxDepth.Load()
		if st.Steps <= cur || r.maxDepth.CompareAndSwap(cur, st.Steps) {
			break
		}
	}
	shard := r.shards[int(r.rr.Add(1))%len(r.shards)]
	shard.mu.Lock()
	shard.f.insert(st, keys)
	shard.mu.Unlock()
	r.live.Add(1)
	r.signalInsert()
}

// shed runs the work-conserving shed: when the run's live count exceeds
// the global budget, every shard keeps its better half. ESD ranks states
// by the final-queue key stored at insertion (states do not change while
// they sit in the frontier, so it equals a fresh score); DFS/RandomPath
// rank by a distance-scored key (searcher.shedKey). shedMu serializes
// shedders, and the re-check under it collapses the thundering herd of
// workers that observed the same overflow.
func (r *searchRun) shed(s *searcher) {
	r.shedMu.Lock()
	defer r.shedMu.Unlock()
	if r.live.Load() <= r.shedBudget {
		return
	}
	var shed int64
	for _, shard := range r.shards {
		shard.mu.Lock()
		shed += int64(shard.f.shed(s.shedKey))
		shard.mu.Unlock()
	}
	if shed == 0 {
		return
	}
	live := r.live.Add(-shed)
	r.sheds.Add(shed)
	r.record(telemetry.Event{
		Kind:   telemetry.EventShed,
		Steps:  r.steps.Load(),
		States: r.states.Load(),
		Live:   int(live),
		Depth:  r.maxDepth.Load(),
	})
}

// signalInsert wakes idle workers after a placement. The waiters check
// keeps the common case (everyone busy) lock-free; see the idleCond
// field comment for why the ordering cannot miss a wakeup.
func (r *searchRun) signalInsert() {
	r.inserts.Add(1)
	if r.waiters.Load() == 0 {
		return
	}
	r.wakeAll()
}

// wakeAll wakes every idle worker so it can re-observe a new insert or a
// terminal condition (done, cancellation, exhaustion).
func (r *searchRun) wakeAll() {
	r.idleMu.Lock()
	r.idleCond.Broadcast()
	r.idleMu.Unlock()
}

func (r *searchRun) budgetExceeded(now time.Time) bool {
	if r.opts.Budget > 0 && now.Sub(r.start) > r.opts.Budget {
		return true
	}
	return r.steps.Load() > r.opts.MaxSteps
}

// sync folds the worker's VM and solver counters into the run's totals
// (called after every quantum, and once before the first pick).
func (r *searchRun) sync(s *searcher) {
	r.steps.Add(s.eng.Stats.Steps - s.lastSteps)
	s.lastSteps = s.eng.Stats.Steps
	r.states.Add(s.eng.Stats.States - s.lastStates)
	s.lastStates = s.eng.Stats.States
	q := int64(s.sol.Queries - s.base.queries)
	r.queries.Add(q - s.lastQueries)
	s.lastQueries = q
}

// frontierSamplePeriod is the pick-count cadence of flight-recorder
// frontier snapshots. Keying on picks (not wall time) is what keeps the
// trace byte-identical across replays of the same seed.
const frontierSamplePeriod = 256

// observe runs the per-pick hooks: a periodic PhaseSearch progress event,
// rate-limited to one per ProgressInterval, and a flight-recorder frontier
// snapshot every frontierSamplePeriod picks. Both read the run's counters.
// With one worker every field is deterministic under strict replay (only
// solver cache hits vary with warmth, and those never enter the trace).
func (r *searchRun) observe(now time.Time) {
	el := now.Sub(r.start)
	if el-time.Duration(r.lastProgress.Load()) >= r.opts.ProgressInterval {
		r.progress(now, el)
	}
	if r.opts.Recorder != nil && r.allPicks.Add(1)%frontierSamplePeriod == 0 {
		r.record(telemetry.Event{
			Kind:          telemetry.EventFrontier,
			Steps:         r.steps.Load(),
			States:        r.states.Load(),
			Live:          int(r.live.Load()),
			Depth:         r.maxDepth.Load(),
			BestDist:      r.bestFit.Load(),
			SolverQueries: r.queries.Load(),
		})
	}
}

// progress emits one periodic progress event (the re-check under mu
// drops a worker that lost the race to a peer's emission).
func (r *searchRun) progress(now time.Time, el time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el-time.Duration(r.lastProgress.Load()) < r.opts.ProgressInterval {
		return
	}
	r.lastProgress.Store(int64(el))
	live := r.live.Load()
	searchFrontier.Observe(live)
	if r.opts.OnProgress == nil {
		return
	}
	r.opts.OnProgress(ProgressEvent{
		Phase:         PhaseSearch,
		Time:          now,
		Elapsed:       el,
		Steps:         r.steps.Load(),
		States:        r.states.Load(),
		Live:          int(live),
		Depth:         r.maxDepth.Load(),
		BestDist:      r.bestFit.Load(),
		SolverQueries: int(r.queries.Load()),
	})
}

// record appends ev to the flight trace under the run mutex.
func (r *searchRun) record(ev telemetry.Event) {
	if r.opts.Recorder == nil {
		return
	}
	r.mu.Lock()
	r.opts.Recorder.Record(ev)
	r.mu.Unlock()
}

// setWinner records the first goal state and cancels everyone else.
func (r *searchRun) setWinner(s *searcher, st *symex.State) {
	r.winnerMu.Lock()
	if r.winner == nil {
		r.winner = st
		s.found = true
	}
	r.winnerMu.Unlock()
	r.finish()
}

// collect aggregates the quiescent workers into the final Result. Called
// after every worker has exited, so reading their structs is race-free.
func (r *searchRun) collect() *Result {
	n := len(r.workers)
	res := &Result{
		Found:                r.winner,
		IntermediateGoalSets: r.pl.nInter,
		Terminals:            map[symex.StateStatus]int64{},
		Workers:              n,
		DedupDrops:           r.dedupDrops.Load(),
		Sheds:                r.sheds.Load(),
		MaxDepth:             r.maxDepth.Load(),
	}
	for _, s := range r.workers {
		est := s.eng.Stats
		res.Steps += est.Steps
		res.StatesCreated += est.States
		res.BranchForks += est.BranchForks
		res.SchedForks += est.SchedForks
		res.Concretizations += est.Concretizations
		res.EpochChecks += est.EpochChecks
		sc := solverCountsOf(s.sol).sub(s.base)
		res.SolverQueries += sc.queries
		res.SolverHits += sc.hits
		res.SolverSharedHits += sc.shared
		res.SolverPersistentHits += sc.persist
		res.SolverVerifyRejects += sc.rejects
		res.SolverWallNanos += sc.wall
		res.AgingPicks += s.agingPicks
		res.StepErrors += s.res.StepErrors
		res.PrunedCritical += s.res.PrunedCritical
		res.PrunedInfinite += s.res.PrunedInfinite
		for k, v := range s.res.Terminals {
			res.Terminals[k] += v
		}
		for _, b := range s.res.OtherBugs {
			if len(res.OtherBugs) < 64 {
				res.OtherBugs = append(res.OtherBugs, b)
			}
		}
		if s.det != nil {
			res.RaceFindings = append(res.RaceFindings, s.det.Findings...)
		}
		if dp, ok := s.eng.Policy.(*sched.DeadlockPolicy); ok {
			res.SnapshotsTaken += dp.SnapshotsTaken
			res.SnapshotsActivated += dp.SnapshotsActivated
			res.EagerForks += dp.EagerForks
		}
		if n > 1 {
			res.WorkerWall = append(res.WorkerWall, telemetry.WorkerWall{
				Worker:     s.id,
				Steps:      est.Steps,
				States:     est.States,
				Picks:      s.taken,
				BusyNS:     s.busyNS,
				SolverNS:   sc.wall,
				SharedHits: sc.shared,
				Found:      s.found,
			})
		}
	}
	res.Pruned = res.PrunedCritical + res.PrunedInfinite
	res.Duration = time.Since(r.start)
	if res.Found == nil {
		switch {
		case r.preempted:
			res.Preempted = true
		case r.timedOut.Load():
			// Our own budget stop, not the caller's context.
			res.TimedOut = true
		case r.ctx.Err() != nil:
			res.TimedOut, res.Cancelled = classifyCtxErr(r.ctx.Err())
		}
		// Otherwise: genuinely exhausted.
	}
	return res
}

// solverCounts is a snapshot of a solver's cumulative counters; a worker
// reports its run's share as the difference from its pre-run snapshot.
type solverCounts struct {
	queries, hits, shared, persist, rejects int
	wall                                    int64
}

func solverCountsOf(sol *solver.Solver) solverCounts {
	return solverCounts{sol.Queries, sol.CacheHits, sol.SharedHits, sol.PersistentHits, sol.VerifyRejects, sol.WallNanos}
}

func (c solverCounts) sub(o solverCounts) solverCounts {
	return solverCounts{c.queries - o.queries, c.hits - o.hits, c.shared - o.shared,
		c.persist - o.persist, c.rejects - o.rejects, c.wall - o.wall}
}

// --- cross-worker dedup -----------------------------------------------------

// stateKey fingerprints a state's decision history for cross-worker
// deduplication. Two states are interchangeable only when both their
// execution prefix AND their policy metadata coincide:
//
//   - the path condition (interned terms are pointer-equal and pinned for
//     the whole run, so hashing addresses is sound) plus the schedule,
//     scheduled thread, and step count pin the execution prefix — given
//     those, the VM's evolution is deterministic;
//   - SchedDist, Preemptions, and EagerForks are policy marks that gate
//     future forking (two positionally identical states with different
//     eager-fork budgets explore different futures);
//   - the K_S snapshot map is rollback capability: folded
//     order-independently (map iteration order must not change the key).
//
// The common duplicate source is snapshot activation: sibling states
// carry pointer-identical snapshots and would regenerate each other's
// activation forks in every worker.
func stateKey(st *symex.State) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(st.Constraints)))
	for _, c := range st.Constraints {
		mix(uint64(uintptr(unsafe.Pointer(c))))
	}
	mix(uint64(st.Cur))
	mix(uint64(st.Steps))
	mix(uint64(len(st.Schedule)))
	for _, seg := range st.Schedule {
		mix(uint64(seg.Tid))
		mix(uint64(seg.Steps))
	}
	mix(uint64(st.SchedDist))
	mix(uint64(st.Preemptions))
	mix(uint64(st.EagerForks))
	var snaps uint64
	for k, snap := range st.Snapshots {
		// Per-entry FNV, folded by XOR: order-independent.
		eh := uint64(offset64)
		for _, v := range [3]uint64{uint64(k.Obj), uint64(k.Off), uint64(uintptr(unsafe.Pointer(snap)))} {
			eh ^= v
			eh *= prime64
		}
		snaps ^= eh
	}
	mix(uint64(len(st.Snapshots)))
	mix(snaps)
	return h
}

// dedupCap bounds the dedup set; past it, admission checks are disabled
// (every state passes) rather than evicting — by then the run is deep
// enough that late exact duplicates are rare, and silent eviction would
// quietly reintroduce duplicated work early keys were supposed to kill.
const dedupCap = 1 << 20

const dedupShards = 16

// dedupSet is a sharded concurrent set of state fingerprints.
type dedupSet struct {
	shards [dedupShards]struct {
		mu sync.Mutex
		m  map[uint64]struct{}
	}
	size atomic.Int64
}

func newDedupSet() *dedupSet {
	d := &dedupSet{}
	for i := range d.shards {
		d.shards[i].m = make(map[uint64]struct{})
	}
	return d
}

// seen inserts key and reports whether it was already present.
func (d *dedupSet) seen(key uint64) bool {
	if d.size.Load() >= dedupCap {
		return false
	}
	s := &d.shards[key%dedupShards]
	s.mu.Lock()
	_, dup := s.m[key]
	if !dup {
		s.m[key] = struct{}{}
	}
	s.mu.Unlock()
	if !dup {
		d.size.Add(1)
	}
	return dup
}
