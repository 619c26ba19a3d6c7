package solver

import (
	"fmt"
	"testing"

	"esd/internal/expr"
)

// pathConstraints builds an n-deep path condition over a handful of
// variables, the query shape the symbolic VM's concretize/feasibility
// checks issue: each conjunct relates one input to constants and to its
// neighbors.
func pathConstraints(n int) []*expr.Expr {
	vars := []*expr.Expr{expr.Var("a"), expr.Var("b"), expr.Var("c"), expr.Var("d")}
	cs := make([]*expr.Expr, 0, n)
	for i := 0; i < n; i++ {
		v := vars[i%len(vars)]
		w := vars[(i+1)%len(vars)]
		cs = append(cs, expr.Binary(expr.OpGe, v, expr.Const(int64(i%5))))
		cs = append(cs, expr.Binary(expr.OpLt, expr.Binary(expr.OpAdd, v, w), expr.Const(int64(200+i))))
	}
	return cs
}

// BenchmarkConcretize measures the solver work behind symex concretization:
// deciding a growing path condition and extracting a model. Fresh solver
// per iteration so the query cache does not short-circuit the measurement.
func BenchmarkConcretize(b *testing.B) {
	for _, n := range []int{4, 16, 48} {
		b.Run(fmt.Sprintf("conjuncts=%d", n), func(b *testing.B) {
			cs := pathConstraints(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New()
				res, model := s.Check(cs)
				if res != Sat || model == nil {
					b.Fatalf("expected sat, got %v", res)
				}
			}
		})
	}
}

// BenchmarkCheckCached measures the repeated-query path: the same
// constraint set checked against a warm solver, as happens when the VM
// re-queries a path condition after appending one conjunct.
func BenchmarkCheckCached(b *testing.B) {
	cs := pathConstraints(32)
	s := New()
	s.Check(cs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Check(cs)
	}
}

// BenchmarkCheckCold measures a cold component solve that has to case-split:
// the unsat division ladder and the satisfiable one-variable ladder, each on
// a fresh solver so no cache tier answers. Nearly every candidate here is
// refuted by a single-variable conjunct, the shape the concrete-evaluation
// reject serves.
func BenchmarkCheckCold(b *testing.B) {
	for _, tc := range []struct {
		name string
		cs   []*expr.Expr
		want Result
	}{
		{"divisionLadder", divisionLadder(), Unsat},
		{"satLadder", satLadder(), Sat},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if res, _ := New().Check(tc.cs); res != tc.want {
					b.Fatalf("got %v, want %v", res, tc.want)
				}
			}
		})
	}
}
