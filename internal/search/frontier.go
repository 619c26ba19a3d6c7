package search

import (
	"math/rand"
	"sort"

	"esd/internal/symex"
)

// queueFrontier owns one frontier shard's live-state structures: the §3.4
// virtual priority queues (ESD), the plain pool (DFS/RandomPath), and the
// anti-starvation FIFO. A search runs one shard per worker (see
// parallel.go); a sequential search is the one-worker, one-shard case.
//
// A queueFrontier is not safe for concurrent use; callers hold the
// shard's lock around every method.
type queueFrontier struct {
	strategy    Strategy
	schedGuided bool
	numQueues   int

	// alive maps each live state to the per-queue ESD keys it was scored
	// with at insertion (nil for non-ESD strategies). Heap and FIFO
	// entries die lazily; membership here is the liveness truth.
	alive map[*symex.State][]esdKey
	// pool is the ordered live-state slice for DFS/RandomPath.
	pool []*symex.State
	// heaps are the per-goal virtual priority queues (lazy deletion).
	heaps []stateHeap
	// fifo holds live states in insertion order; every agingPeriod-th ESD
	// pick drains from here instead of the fitness heaps. Pure best-first
	// livelocks when scheduling policies fork equal-fitness states faster
	// than lineages terminate (every successor waits behind the whole
	// band); the aging pick guarantees each state is eventually run, which
	// is what completes multi-party deadlock lineages. The aging cadence
	// is counted per worker (searcher.picks), not per shard.
	fifo []*symex.State
}

func newQueueFrontier(strategy Strategy, schedGuided bool, numQueues int) *queueFrontier {
	return &queueFrontier{
		strategy:    strategy,
		schedGuided: schedGuided,
		numQueues:   numQueues,
		alive:       map[*symex.State][]esdKey{},
		heaps:       make([]stateHeap, numQueues),
	}
}

// size is the number of live states.
func (f *queueFrontier) size() int { return len(f.alive) }

// insert adds a live state with its per-queue keys (nil outside ESD).
func (f *queueFrontier) insert(st *symex.State, keys []esdKey) {
	f.alive[st] = keys
	if f.strategy == StrategyESD {
		for q := range f.heaps {
			f.heaps[q].push(heapEntry{st: st, key: keys[q]})
		}
		if f.schedGuided {
			// Only schedule-guided searches drain the aging FIFO; feeding
			// it otherwise would pin every dead state against GC.
			f.fifo = append(f.fifo, st)
		}
	} else {
		f.pool = append(f.pool, st)
	}
}

// remove takes a state out of the frontier (heap entries die lazily).
func (f *queueFrontier) remove(st *symex.State) {
	delete(f.alive, st)
}

// pickPool removes and returns the next DFS/RandomPath state: the newest
// for DFS, a uniformly random one for RandomPath (rng drives the draw, so
// two runs with the same seed pick identically).
func (f *queueFrontier) pickPool(rng *rand.Rand) *symex.State {
	for len(f.pool) > 0 {
		var idx int
		switch f.strategy {
		case StrategyDFS:
			idx = len(f.pool) - 1 // most recently added
		default:
			idx = rng.Intn(len(f.pool))
		}
		st := f.pool[idx]
		f.pool = append(f.pool[:idx], f.pool[idx+1:]...)
		if _, ok := f.alive[st]; ok {
			f.remove(st)
			return st
		}
	}
	return nil
}

// peekQueue reports the best live key in virtual queue q, discarding dead
// lazy-deletion entries from the heap top on the way. A pick uses it to
// compare shard heads before committing to a pop, so a worker takes the
// globally best state rather than its own shard's best.
func (f *queueFrontier) peekQueue(q int) (esdKey, bool) {
	h := &f.heaps[q]
	for {
		if len(*h) == 0 {
			return esdKey{}, false
		}
		e := (*h)[0]
		if _, live := f.alive[e.st]; live {
			return e.key, true
		}
		h.pop()
	}
}

// popQueue removes and returns the best live state in virtual queue q
// (nil when the queue holds no live state). Every live state is in every
// queue's heap, so an empty queue means an empty frontier.
func (f *queueFrontier) popQueue(q int) *symex.State {
	for {
		e, ok := f.heaps[q].pop()
		if !ok {
			return nil
		}
		if _, live := f.alive[e.st]; live {
			f.remove(e.st)
			return e.st
		}
	}
}

// pickFIFO removes and returns the oldest live state (entries for states
// already taken die lazily, as in the heaps).
func (f *queueFrontier) pickFIFO() *symex.State {
	for len(f.fifo) > 0 {
		st := f.fifo[0]
		f.fifo[0] = nil // release the popped slot's backing-array reference
		f.fifo = f.fifo[1:]
		if _, ok := f.alive[st]; ok {
			f.remove(st)
			return st
		}
	}
	return nil
}

// shed keeps the better half of the live states and drops the rest;
// rank maps a state and its stored per-queue keys to the key it is ranked
// by (lower is better). Keys are total (unique state IDs), so the kept
// set and its re-insertion order are deterministic despite map iteration.
// Returns the number of states dropped.
func (f *queueFrontier) shed(rank func(*symex.State, []esdKey) esdKey) int {
	if f.size() < 2 {
		return 0
	}
	type ranked struct {
		st   *symex.State
		keys []esdKey
		k    esdKey
	}
	arr := make([]ranked, 0, f.size())
	for st, keys := range f.alive {
		arr = append(arr, ranked{st, keys, rank(st, keys)})
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i].k.less(arr[j].k) })
	keep := len(arr) / 2
	f.reset()
	for _, e := range arr[:keep] {
		f.insert(e.st, e.keys)
	}
	return len(arr) - keep
}

// reset clears every structure, dropping backing arrays so shed states
// become collectable.
func (f *queueFrontier) reset() {
	f.alive = map[*symex.State][]esdKey{}
	f.pool = nil
	f.fifo = nil
	f.heaps = make([]stateHeap, f.numQueues)
}

type heapEntry struct {
	st  *symex.State
	key esdKey
}

// stateHeap is a binary min-heap over esdKey.
type stateHeap []heapEntry

func (h *stateHeap) push(e heapEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h)[i].key.less((*h)[p].key) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *stateHeap) pop() (heapEntry, bool) {
	old := *h
	if len(old) == 0 {
		return heapEntry{}, false
	}
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (*h)[l].key.less((*h)[m].key) {
			m = l
		}
		if r < n && (*h)[r].key.less((*h)[m].key) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top, true
}
