package expr

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements the hash-consing layer: every term is interned in a
// sharded global table at construction, so structurally equal terms are
// represented by the same pointer. That makes Equal a pointer comparison,
// Hash a field read, and lets every node carry its free-variable set,
// computed once from its (already interned) children.
//
// The table is global rather than threaded through the engine because
// terms flow freely between the VM, the solver, and the search; a shared
// store means a term built by any of them is the term. Shards keep the
// constructor path short and let concurrent engines intern without
// contending on a single lock.

const internShards = 64

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]*Expr
}

var shards [internShards]internShard

var nextExprID atomic.Uint64

// Footprint counters, maintained at intern time so snapshots are O(1):
// a service polls these per request and per health probe, and walking
// every shard chain under its lock there would stall concurrent interning.
var (
	termCount atomic.Int64
	nameCount atomic.Int64
	byteCount atomic.Int64
	// internHits/internMisses count constructor traffic: a hit found the
	// canonical node already published, a miss created it. The hit rate is
	// the hash-consing effectiveness number the PR-2 rework was built on,
	// now maintained continuously instead of re-derived in benchmarks.
	internHits   atomic.Int64
	internMisses atomic.Int64
)

const exprNodeSize = int64(unsafe.Sizeof(Expr{}))

// accountTerms and accountNames are the single byte-accounting path: both
// intern-time growth and reclaim-time release go through them, so
// Stats.Bytes and ReclaimStats.BytesReclaimed can never use divergent
// cost models (they previously recomputed node costs independently, which
// let /healthz and /metrics disagree after a sweep).
func accountTerms(n int64)            { termCount.Add(n); byteCount.Add(n * exprNodeSize) }
func accountNames(n, nameBytes int64) { nameCount.Add(n); byteCount.Add(nameBytes) }

// intern returns the canonical node for the given shape, creating and
// publishing it if it is new. Children must already be interned, so the
// chain comparison is a handful of word compares.
func intern(op Op, c int64, name string, a, b, t, f *Expr) *Expr {
	h := hashParts(op, c, name, a, b, t, f)
	sh := &shards[h%internShards]
	sh.mu.Lock()
	for _, x := range sh.m[h] {
		if x.Op == op && x.C == c && x.Name == name && x.A == a && x.B == b && x.T == t && x.F == f {
			sh.mu.Unlock()
			internHits.Add(1)
			return x
		}
	}
	e := &Expr{Op: op, C: c, Name: name, A: a, B: b, T: t, F: f, hash: h}
	e.id = nextExprID.Add(1)
	e.skey = structKeyParts(op, c, name, a, b, t, f)
	switch op {
	case OpConst:
		e.vars = emptyVarSet
	case OpVar:
		e.vars = singletonVarSet(internName(name))
	default:
		vs := emptyVarSet
		for _, ch := range [...]*Expr{a, b, t, f} {
			if ch != nil {
				vs = unionVarSets(vs, ch.vars)
			}
		}
		e.vars = vs
	}
	if sh.m == nil {
		sh.m = map[uint64][]*Expr{}
	}
	sh.m[h] = append(sh.m[h], e)
	sh.mu.Unlock()
	internMisses.Add(1)
	// Name bytes are counted by internName: every OpVar's name string is
	// interned there and shares its backing array with Expr.Name.
	accountTerms(1)
	return e
}

func hashParts(op Op, c int64, name string, a, b, t, f *Expr) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(op))
	mix(uint64(c))
	for i := 0; i < len(name); i++ {
		mix(uint64(name[i]))
	}
	if a != nil {
		mix(a.hash)
	}
	if b != nil {
		mix(b.hash ^ 0x9e3779b97f4a7c15)
	}
	if t != nil {
		mix(t.hash ^ 0xdeadbeef)
	}
	if f != nil {
		mix(f.hash ^ 0xcafebabe)
	}
	return h
}

// Small constants are by far the most constructed terms (offsets, lengths,
// comparison bounds), so they get a lock-free preallocated fast path.
const (
	constCacheMin = -512
	constCacheMax = 1024
)

var constCache [constCacheMax - constCacheMin + 1]*Expr

func init() {
	for v := int64(constCacheMin); v <= constCacheMax; v++ {
		constCache[v-constCacheMin] = intern(OpConst, v, "", nil, nil, nil, nil)
	}
}

// InternedNodes returns the number of live interned terms (diagnostics).
func InternedNodes() int {
	n := 0
	for i := range shards {
		sh := &shards[i]
		sh.mu.Lock()
		for _, chain := range sh.m {
			n += len(chain)
		}
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the interner's footprint. The
// table is append-only: these numbers only grow, except across an
// explicit Reclaim sweep (see reclaim.go), which tests and benchmarks use
// to start cold. A long-lived service reports them so the growth per
// novel program stays observable.
type Stats struct {
	// Terms is the number of live interned terms.
	Terms int `json:"terms"`
	// Names is the number of distinct variable names interned.
	Names int `json:"names"`
	// Bytes estimates the retained heap of the terms themselves: node
	// structs plus variable-name storage (table slot overhead excluded).
	Bytes int64 `json:"bytes"`
	// Shards is the fixed shard count of the intern table.
	Shards int `json:"shards"`
	// Epoch is the current reclaim epoch: the number of completed sweeps.
	// Identity-keyed downstream caches record it and flush when it moves.
	Epoch uint64 `json:"epoch"`
	// BytesReclaimed is the cumulative estimate of bytes released by
	// sweeps over the process lifetime. It shares one accounting path with
	// Bytes (accountTerms/accountNames), so the two can never drift.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// InternHits/InternMisses count constructor traffic: hits returned an
	// already-published canonical node, misses created one.
	InternHits   int64 `json:"intern_hits"`
	InternMisses int64 `json:"intern_misses"`
}

// InternerStats snapshots the global interner. O(1): the counters are
// maintained at intern time, so per-request and health-probe polling
// never touches the shard locks.
func InternerStats() Stats {
	return Stats{
		Terms:          int(termCount.Load()),
		Names:          int(nameCount.Load()),
		Bytes:          byteCount.Load(),
		Shards:         internShards,
		Epoch:          epochCount.Load(),
		BytesReclaimed: reclaimedBytes.Load(),
		InternHits:     internHits.Load(),
		InternMisses:   internMisses.Load(),
	}
}

// --- Variable name table ----------------------------------------------------

// nameTab interns variable names to dense int32 IDs so var-sets are sorted
// integer slices instead of string sets. free holds IDs tombstoned by a
// Reclaim sweep; they are recycled before the table grows, which is safe
// because a swept ID is, by construction, referenced by no live term.
var nameTab = struct {
	sync.RWMutex
	ids   map[string]int32
	names []string
	free  []int32
}{ids: map[string]int32{}}

func internName(s string) int32 {
	nameTab.RLock()
	id, ok := nameTab.ids[s]
	nameTab.RUnlock()
	if ok {
		return id
	}
	nameTab.Lock()
	defer nameTab.Unlock()
	if id, ok := nameTab.ids[s]; ok {
		return id
	}
	if n := len(nameTab.free); n > 0 {
		id = nameTab.free[n-1]
		nameTab.free = nameTab.free[:n-1]
		nameTab.names[id] = s
	} else {
		id = int32(len(nameTab.names))
		nameTab.names = append(nameTab.names, s)
	}
	nameTab.ids[s] = id
	accountNames(1, int64(len(s)))
	return id
}

// lookupNameID resolves a name without registering it; a name that was
// never interned cannot occur in any term.
func lookupNameID(s string) (int32, bool) {
	nameTab.RLock()
	id, ok := nameTab.ids[s]
	nameTab.RUnlock()
	return id, ok
}

func nameOf(id int32) string {
	nameTab.RLock()
	defer nameTab.RUnlock()
	return nameTab.names[id]
}

// --- Variable sets ----------------------------------------------------------

// varSet is an interned, sorted set of variable-name IDs. Interning the
// sets themselves means terms over the same variables share one set, and
// the sorted-name view is materialized at most once per distinct set.
type varSet struct {
	ids  []int32 // sorted ascending, deduplicated
	hash uint64
	mark uint64 // reclaim-generation mark (see reclaim.go)

	once   sync.Once
	sorted []string // lexically sorted names, built lazily
}

var emptyVarSet = &varSet{hash: 14695981039346656037}

func (s *varSet) has(id int32) bool {
	ids := s.ids
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}

// names returns the set as lexically sorted variable names. The slice is
// shared: callers must not modify it.
func (s *varSet) names() []string {
	s.once.Do(func() {
		out := make([]string, len(s.ids))
		for i, id := range s.ids {
			out[i] = nameOf(id)
		}
		sort.Strings(out)
		s.sorted = out
	})
	return s.sorted
}

var varSetTab = struct {
	sync.Mutex
	m map[uint64][]*varSet
}{m: map[uint64][]*varSet{}}

func hashIDs(ids []int32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= prime
	}
	return h
}

// internVarSet canonicalizes a sorted, deduplicated ID slice. The slice's
// ownership passes to the table on a miss.
func internVarSet(ids []int32) *varSet {
	if len(ids) == 0 {
		return emptyVarSet
	}
	h := hashIDs(ids)
	varSetTab.Lock()
	defer varSetTab.Unlock()
outer:
	for _, s := range varSetTab.m[h] {
		if len(s.ids) != len(ids) {
			continue
		}
		for i, id := range ids {
			if s.ids[i] != id {
				continue outer
			}
		}
		return s
	}
	s := &varSet{ids: ids, hash: h}
	varSetTab.m[h] = append(varSetTab.m[h], s)
	return s
}

func singletonVarSet(id int32) *varSet {
	return internVarSet([]int32{id})
}

func unionVarSets(a, b *varSet) *varSet {
	if a == b || len(b.ids) == 0 {
		return a
	}
	if len(a.ids) == 0 {
		return b
	}
	merged := make([]int32, 0, len(a.ids)+len(b.ids))
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] < b.ids[j]:
			merged = append(merged, a.ids[i])
			i++
		case a.ids[i] > b.ids[j]:
			merged = append(merged, b.ids[j])
			j++
		default:
			merged = append(merged, a.ids[i])
			i++
			j++
		}
	}
	merged = append(merged, a.ids[i:]...)
	merged = append(merged, b.ids[j:]...)
	return internVarSet(merged)
}
