package expr

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the epoch sweep of the interned-term universe. The
// intern table is append-only: every distinct term built by any run stays
// resident for the life of the process, and nothing in the engine or the
// service sweeps it (a novel program grows it by a few KB). The sweep is
// kept as the primitive that returns a process to a cold interner: tests
// and benchmarks call it to start a run from scratch.
//
// A Reclaim is a stop-the-world mark-sweep over the global store: with
// every shard (plus the name and var-set tables) locked, live terms are
// marked from the roots — the constant cache and the roots passed by the
// caller — then unmarked terms are unlinked from the shard chains,
// var-sets no live term references are dropped, and variable names no
// live var-set references are tombstoned (their IDs recycled). Completing
// a sweep advances the process-wide epoch; identity-keyed downstream
// caches (Subst memos) record the epoch they were filled in and flush when
// it moves, so a reclaimed epoch can never serve entries about dead terms.
// Intern IDs themselves are never reused (nextExprID is monotonic), so a
// stale ID-keyed entry can go garbage but can never alias a new term.
//
// Safety contract: terms are raw pointers, so a sweep concurrent with a
// goroutine that is constructing terms — or holding terms not reachable
// from a root — would leave that goroutine with dangling nodes. Every such
// goroutine must hold a Pin() for as long as it builds or keeps unrooted
// terms (esd.Engine and the search pin every synthesis). TryReclaim only
// sweeps when no pins are held, and new pins briefly queue behind an
// in-progress sweep.

// pinGate serializes sweeps against pin acquisition: Pin holds it for an
// instant, a sweep holds it for the sweep's duration. pinned counts live
// pins; it is incremented under pinGate but decremented lock-free, so
// nested pins on one goroutine can never deadlock against a sweeper.
var (
	pinGate sync.Mutex
	pinned  atomic.Int64
)

// Epoch and reclaimed-bytes counters (surfaced through Stats).
var (
	epochCount     atomic.Uint64
	reclaimedBytes atomic.Int64
)

// reclaimGen is the mark generation; read and written only inside the
// stop-the-world window of reclaim().
var reclaimGen uint64

// Epoch returns the current reclaim epoch. It starts at zero and advances
// once per completed sweep. Identity-keyed caches over *Expr (or intern
// IDs) should record the epoch they were filled in and flush when a later
// call observes a different value.
func Epoch() uint64 { return epochCount.Load() }

// Pin marks the calling goroutine as an active builder/holder of interned
// terms and returns the release function. While any pin is held,
// TryReclaim refuses to sweep; while a sweep is running, Pin blocks until
// it finishes. Pins nest freely (each Pin pairs with its own release, and
// release is idempotent).
func Pin() (release func()) {
	pinGate.Lock()
	pinned.Add(1)
	pinGate.Unlock()
	var once sync.Once
	return func() { once.Do(func() { pinned.Add(-1) }) }
}

// ReclaimStats describes one completed sweep.
type ReclaimStats struct {
	// Epoch is the epoch number this sweep established.
	Epoch uint64 `json:"epoch"`
	// TermsBefore/TermsLive are the interned-term counts going in and
	// surviving; TermsReclaimed is the difference.
	TermsBefore    int `json:"terms_before"`
	TermsLive      int `json:"terms_live"`
	TermsReclaimed int `json:"terms_reclaimed"`
	// NamesReclaimed and VarSetsReclaimed count swept auxiliary-table
	// entries (name IDs are tombstoned and recycled).
	NamesReclaimed   int `json:"names_reclaimed"`
	VarSetsReclaimed int `json:"var_sets_reclaimed"`
	// BytesReclaimed is the estimated heap released: node structs plus
	// variable-name storage, matching Stats.Bytes accounting.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// Duration is the stop-the-world time of the sweep.
	Duration time.Duration `json:"duration_ns"`
}

// TryReclaim sweeps the interned-term universe if and only if no pins are
// held, keeping the constant cache, the given roots, and everything
// reachable from them. It returns the sweep stats and whether a sweep
// ran; ok=false means a pinned goroutine was active and nothing was
// touched. While the sweep runs, new Pin calls (and hence new syntheses)
// block.
func TryReclaim(roots ...*Expr) (ReclaimStats, bool) {
	pinGate.Lock()
	defer pinGate.Unlock()
	if pinned.Load() != 0 {
		return ReclaimStats{Epoch: epochCount.Load()}, false
	}
	return reclaim(roots), true
}

// Reclaim blocks until no pins are held, then sweeps. It must not be
// called from a goroutine that itself holds a pin (it would spin forever);
// prefer TryReclaim anywhere that cannot be guaranteed.
func Reclaim(roots ...*Expr) ReclaimStats {
	for {
		if st, ok := TryReclaim(roots...); ok {
			return st
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// reclaim is the stop-the-world mark-sweep. Caller holds pinGate with
// zero pins outstanding, so no goroutine is constructing or holding
// unrooted terms; the shard/table locks below additionally block any
// unpinned stragglers for the duration.
func reclaim(roots []*Expr) ReclaimStats {
	start := time.Now()
	for i := range shards {
		shards[i].mu.Lock()
	}
	varSetTab.Lock()
	nameTab.Lock()
	defer func() {
		nameTab.Unlock()
		varSetTab.Unlock()
		for i := len(shards) - 1; i >= 0; i-- {
			shards[i].mu.Unlock()
		}
	}()

	reclaimGen++
	gen := reclaimGen
	st := ReclaimStats{TermsBefore: int(termCount.Load())}

	// Mark: every term reachable from a root is live, as is its var-set.
	var stack []*Expr
	mark := func(e *Expr) {
		if e != nil && e.mark != gen {
			e.mark = gen
			stack = append(stack, e)
		}
	}
	for _, e := range constCache {
		mark(e)
	}
	for _, e := range roots {
		mark(e)
	}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		mark(e.A)
		mark(e.B)
		mark(e.T)
		mark(e.F)
		if e.vars != nil {
			e.vars.mark = gen
		}
	}
	emptyVarSet.mark = gen

	// Sweep the shard chains.
	for i := range shards {
		sh := &shards[i]
		for h, chain := range sh.m {
			w := 0
			for _, x := range chain {
				if x.mark == gen {
					chain[w] = x
					w++
				}
			}
			st.TermsReclaimed += len(chain) - w
			if w == 0 {
				delete(sh.m, h)
				continue
			}
			for j := w; j < len(chain); j++ {
				chain[j] = nil // release the dead tail references
			}
			sh.m[h] = chain[:w]
		}
	}

	// Sweep the var-set table, collecting the name IDs live sets use.
	liveNames := map[int32]bool{}
	for h, chain := range varSetTab.m {
		w := 0
		for _, s := range chain {
			if s.mark == gen {
				chain[w] = s
				w++
				for _, id := range s.ids {
					liveNames[id] = true
				}
			}
		}
		st.VarSetsReclaimed += len(chain) - w
		if w == 0 {
			delete(varSetTab.m, h)
			continue
		}
		for j := w; j < len(chain); j++ {
			chain[j] = nil
		}
		varSetTab.m[h] = chain[:w]
	}

	// Tombstone names no live var-set references and recycle their IDs.
	var nameBytes int64
	for name, id := range nameTab.ids {
		if liveNames[id] {
			continue
		}
		delete(nameTab.ids, name)
		nameTab.names[id] = ""
		nameTab.free = append(nameTab.free, id)
		st.NamesReclaimed++
		nameBytes += int64(len(name))
	}
	if st.NamesReclaimed > 0 {
		// Map iteration above is nondeterministic; keep the free list (and
		// therefore future ID assignment) deterministic for reproducibility.
		sort.Slice(nameTab.free, func(i, j int) bool { return nameTab.free[i] < nameTab.free[j] })
	}

	// Release through the same accounting helpers intern uses, and report
	// BytesReclaimed as the measured byteCount delta. One accounting path
	// means Stats.Bytes and the sweep's reclaimed-bytes figure cannot
	// drift: /healthz and /metrics always agree. (No intern can interleave
	// here — the shard and name-table locks are held for the whole sweep.)
	bytesBefore := byteCount.Load()
	accountTerms(-int64(st.TermsReclaimed))
	accountNames(-int64(st.NamesReclaimed), -nameBytes)
	st.BytesReclaimed = bytesBefore - byteCount.Load()
	reclaimedBytes.Add(st.BytesReclaimed)
	epochCount.Add(1)

	st.Epoch = epochCount.Load()
	st.TermsLive = int(termCount.Load())
	st.Duration = time.Since(start)
	return st
}
