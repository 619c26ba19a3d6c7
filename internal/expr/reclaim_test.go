package expr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestReclaimSweepsDeadTerms: terms unreachable from any root are swept
// (rebuilding one yields a fresh node with a fresh ID), roots and their
// transitive children survive with identity intact, and the footprint
// counters go down by what was swept.
func TestReclaimSweepsDeadTerms(t *testing.T) {
	// Build a root DAG and a pile of garbage terms.
	root := Binary(OpAdd, Var("reclaim-root-x"), Binary(OpMul, Var("reclaim-root-y"), Const(77001)))
	child := root.B // interior node, reachable only through root
	var doomed *Expr
	for i := 0; i < 500; i++ {
		doomed = Binary(OpXor, Var("reclaim-doomed"), Const(int64(200000+i)))
	}
	doomedID := doomed.ID()

	before := InternerStats()
	st := Reclaim(root)
	after := InternerStats()

	if st.TermsReclaimed < 500 {
		t.Fatalf("sweep reclaimed %d terms, want >= 500", st.TermsReclaimed)
	}
	if after.Terms != before.Terms-st.TermsReclaimed {
		t.Errorf("term counter off: before=%d reclaimed=%d after=%d", before.Terms, st.TermsReclaimed, after.Terms)
	}
	if after.Bytes >= before.Bytes {
		t.Errorf("bytes did not shrink: %d -> %d", before.Bytes, after.Bytes)
	}
	if after.Epoch != before.Epoch+1 {
		t.Errorf("epoch not advanced: %+v -> %+v", before, after)
	}
	if after.BytesReclaimed-before.BytesReclaimed != st.BytesReclaimed {
		t.Errorf("cumulative reclaimed-bytes counter off")
	}
	// Reconciliation invariant: the sweep's reported reclaim is exactly the
	// footprint delta — one accounting path feeds both numbers.
	if st.BytesReclaimed != before.Bytes-after.Bytes {
		t.Errorf("sweep reported %d bytes reclaimed, footprint shrank by %d",
			st.BytesReclaimed, before.Bytes-after.Bytes)
	}

	// Root identity preserved: rebuilding the same structure re-finds the
	// same pointers.
	if got := Binary(OpMul, Var("reclaim-root-y"), Const(77001)); got != child {
		t.Error("root's child lost its interned identity across the sweep")
	}
	// Swept terms re-intern as new nodes with new IDs (never reused), so
	// stale identity-keyed cache entries cannot alias them.
	reborn := Binary(OpXor, Var("reclaim-doomed"), Const(int64(200000+499)))
	if reborn == doomed {
		t.Error("dead term survived the sweep")
	}
	if reborn.ID() == doomedID {
		t.Error("intern ID reused across a sweep")
	}
}

// TestReclaimNameRecycling: names no live term uses are tombstoned and
// their IDs recycled; surviving names keep resolving.
func TestReclaimNameRecycling(t *testing.T) {
	keep := Binary(OpGt, Var("name-keeper"), Const(55660))
	_ = Var("name-doomed-zzz")
	if _, ok := lookupNameID("name-doomed-zzz"); !ok {
		t.Fatal("setup: name not interned")
	}
	Reclaim(keep)
	if _, ok := lookupNameID("name-doomed-zzz"); ok {
		t.Error("dead name survived the sweep")
	}
	if !keep.HasVar("name-keeper") {
		t.Error("live name stopped resolving after the sweep")
	}
	// Re-interning works and reuses a tombstoned slot (no table growth).
	names := InternerStats().Names
	v := Var("name-doomed-zzz")
	if !v.HasVar("name-doomed-zzz") {
		t.Error("recycled name does not resolve")
	}
	if got := InternerStats().Names; got != names+1 {
		t.Errorf("names counter = %d, want %d", got, names+1)
	}
}

// TestSubstEpochFlush: a Subst built before a sweep still substitutes
// correctly after it (its memo and resolved name ID are epoch-aware).
func TestSubstEpochFlush(t *testing.T) {
	target := Binary(OpAdd, Var("subst-epoch-v"), Const(44771))
	repl := Const(9)
	sub := NewSubst("subst-epoch-v", repl)
	want := Binary(OpAdd, Const(9), Const(44771)) // folds to a const
	if got := sub.Apply(target); got != want {
		t.Fatalf("pre-sweep Apply = %v, want %v", got, want)
	}
	Reclaim(target, repl)
	if got := sub.Apply(target); got != Const(9+44771) {
		t.Fatalf("post-sweep Apply = %v, want %v", got, Const(9+44771))
	}
}

// TestPinBlocksReclaim: TryReclaim refuses while any pin is held, and
// pins nest (each release pairs with its own pin; double-release is a
// no-op).
func TestPinBlocksReclaim(t *testing.T) {
	rel1 := Pin()
	if _, ok := TryReclaim(); ok {
		t.Fatal("sweep ran under a pin")
	}
	rel2 := Pin() // nested
	rel1()
	if _, ok := TryReclaim(); ok {
		t.Fatal("sweep ran under the nested pin")
	}
	rel2()
	rel2() // idempotent
	if _, ok := TryReclaim(); !ok {
		t.Fatal("sweep refused with all pins released")
	}
}

// TestConcurrentPinnedBuildersAndReclaim hammers the gate: goroutines
// build terms under pins while the main goroutine sweeps whenever the
// gate opens. Run under -race in CI; correctness check is that every
// pinned session's terms stay self-consistent while pinned.
func TestConcurrentPinnedBuildersAndReclaim(t *testing.T) {
	const goroutines = 4
	const sessions = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 99))
			for i := 0; i < sessions; i++ {
				release := Pin()
				v := Var(fmt.Sprintf("pinrace-g%d", g))
				e := Binary(OpAdd, v, Const(int64(300000+r.Intn(10000))))
				e2 := Binary(OpAdd, v, e.B)
				if e2 != e {
					t.Errorf("identity broken under pin: %v vs %v", e, e2)
				}
				if got := e.Substitute(fmt.Sprintf("pinrace-g%d", g), Const(1)); got.Op != OpConst {
					t.Errorf("substitution under pin produced %v", got)
				}
				release()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	sweeps := 0
	for {
		select {
		case <-done:
			if sweeps == 0 {
				// The builders never all released at once on this schedule;
				// take the deterministic sweep now that they are done.
				if _, ok := TryReclaim(); !ok {
					t.Error("gate still closed after all builders finished")
				}
			}
			return
		default:
			if _, ok := TryReclaim(); ok {
				sweeps++
			}
		}
	}
}
