package expr

import (
	"fmt"
	"testing"
)

// sharedDAG builds a term in which each level reuses the previous level
// twice, so the result is a DAG with O(n) distinct nodes but 2^n paths.
// This is the shape path constraints take in practice: one symbolic input
// feeding many derived comparisons.
func sharedDAG(n int) *Expr {
	e := Binary(OpAdd, Var("x"), Var("y"))
	for i := 0; i < n; i++ {
		e = Binary(OpXor, Binary(OpMul, e, Const(3)), Binary(OpAnd, e, Const(int64(i)+100)))
	}
	return e
}

// BenchmarkSubstitute measures rewriting a shared-subtree DAG. Hash-consing
// plus the per-call memo should make this O(distinct nodes) in both time
// and allocations; a naive tree walk is O(paths) = exponential.
func BenchmarkSubstitute(b *testing.B) {
	for _, depth := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := sharedDAG(depth)
			four := Const(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Substitute("x", four)
			}
		})
	}
}

// BenchmarkConstruct measures raw constructor throughput on the hot
// branch-condition shape (var REL const chains).
func BenchmarkConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := Var("x")
		c := Binary(OpGt, x, Const(int64(i%64)))
		c = Binary(OpLAnd, c, Binary(OpLt, x, Const(100)))
		_ = Not(c)
	}
}

// BenchmarkReclaim measures the stop-the-world sweep cost as a function
// of the live-term count: each iteration interns a fixed batch of doomed
// terms, then mark-sweeps them away while `live` rooted terms survive.
// ns/op is therefore how long new pins wait out one sweep at that
// live-set size.
func BenchmarkReclaim(b *testing.B) {
	for _, live := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			// Build the rooted live set once: a chain of distinct non-linear
			// nodes (xor does not fold) rooted in a single term.
			root := Var("reclaim-bench-root")
			for i := 0; i < live; i++ {
				root = Binary(OpXor, root, Const(int64(2000+i)))
			}
			Reclaim(root) // settle to a clean baseline
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 4096; j++ {
					Binary(OpAdd, Var("reclaim-bench-doomed"), Const(int64(1_000_000+i*4096+j)))
				}
				b.StartTimer()
				st := Reclaim(root)
				if st.TermsReclaimed < 4096 {
					b.Fatalf("sweep reclaimed %d terms, want >= 4096", st.TermsReclaimed)
				}
			}
		})
	}
}
