package solver

import (
	"math/rand"
	"testing"

	"esd/internal/expr"
)

func checkSat(t *testing.T, cs []*expr.Expr) map[string]int64 {
	t.Helper()
	s := New()
	res, model := s.Check(cs)
	if res != Sat {
		t.Fatalf("expected sat, got %v for %v", res, cs)
	}
	for _, c := range cs {
		env := completeModel(model, c)
		v, err := c.Eval(env)
		if err != nil || v == 0 {
			t.Fatalf("model %v does not satisfy %v (err=%v)", model, c, err)
		}
	}
	return model
}

func checkUnsat(t *testing.T, cs []*expr.Expr) {
	t.Helper()
	s := New()
	res, _ := s.Check(cs)
	if res != Unsat {
		t.Fatalf("expected unsat, got %v for %v", res, cs)
	}
}

func v(n string) *expr.Expr         { return expr.Var(n) }
func c(x int64) *expr.Expr          { return expr.Const(x) }
func eq(a, b *expr.Expr) *expr.Expr { return expr.Binary(expr.OpEq, a, b) }

func TestTrivial(t *testing.T) {
	checkSat(t, nil)
	checkSat(t, []*expr.Expr{c(1)})
	checkUnsat(t, []*expr.Expr{c(0)})
}

func TestSingleEquality(t *testing.T) {
	m := checkSat(t, []*expr.Expr{eq(v("x"), c(109))}) // getchar() == 'm'
	if m["x"] != 109 {
		t.Fatalf("x = %d, want 109", m["x"])
	}
}

func TestContradiction(t *testing.T) {
	checkUnsat(t, []*expr.Expr{eq(v("x"), c(1)), eq(v("x"), c(2))})
	checkUnsat(t, []*expr.Expr{
		expr.Binary(expr.OpLt, v("x"), c(0)),
		expr.Binary(expr.OpGt, v("x"), c(0)),
	})
}

func TestRangeConjunction(t *testing.T) {
	m := checkSat(t, []*expr.Expr{
		expr.Binary(expr.OpGe, v("x"), c(10)),
		expr.Binary(expr.OpLe, v("x"), c(12)),
		expr.Binary(expr.OpNe, v("x"), c(10)),
		expr.Binary(expr.OpNe, v("x"), c(12)),
	})
	if m["x"] != 11 {
		t.Fatalf("x = %d, want 11", m["x"])
	}
}

func TestLinearTwoVars(t *testing.T) {
	// x + y == 10, x - y == 4  =>  x=7, y=3
	m := checkSat(t, []*expr.Expr{
		eq(expr.Binary(expr.OpAdd, v("x"), v("y")), c(10)),
		eq(expr.Binary(expr.OpSub, v("x"), v("y")), c(4)),
	})
	if m["x"]+m["y"] != 10 || m["x"]-m["y"] != 4 {
		t.Fatalf("bad model %v", m)
	}
}

func TestScaledLinear(t *testing.T) {
	// 3x == 12 and 3x == 13 (no integer solution)
	checkSat(t, []*expr.Expr{eq(expr.Binary(expr.OpMul, v("x"), c(3)), c(12))})
	checkUnsat(t, []*expr.Expr{eq(expr.Binary(expr.OpMul, v("x"), c(3)), c(13))})
}

func TestDisequalityChain(t *testing.T) {
	// Paper example shape: mode==MOD_Y && idx==1 with byte constraints.
	cs := []*expr.Expr{
		eq(v("env0"), c('Y')),
		eq(v("mode"), c(2)),
		eq(v("idx"), c(1)),
		expr.Binary(expr.OpGe, v("ch"), c(0)),
		expr.Binary(expr.OpLe, v("ch"), c(255)),
		eq(v("ch"), c('m')),
	}
	m := checkSat(t, cs)
	if m["ch"] != 'm' || m["env0"] != 'Y' {
		t.Fatalf("bad model %v", m)
	}
}

func TestNonlinearFallsBackToSearch(t *testing.T) {
	// x*x == 49 with 0 <= x <= 10: solvable by candidate search.
	m := checkSat(t, []*expr.Expr{
		eq(expr.Binary(expr.OpMul, v("x"), v("x")), c(49)),
		expr.Binary(expr.OpGe, v("x"), c(0)),
		expr.Binary(expr.OpLe, v("x"), c(10)),
	})
	if m["x"] != 7 {
		t.Fatalf("x = %d, want 7", m["x"])
	}
}

func TestLogicalOr(t *testing.T) {
	// (x == 3 || x == 5) && x > 4  =>  x = 5
	m := checkSat(t, []*expr.Expr{
		expr.Binary(expr.OpLOr, eq(v("x"), c(3)), eq(v("x"), c(5))),
		expr.Binary(expr.OpGt, v("x"), c(4)),
	})
	if m["x"] != 5 {
		t.Fatalf("x = %d, want 5", m["x"])
	}
}

func TestLAndFlattening(t *testing.T) {
	con := expr.Binary(expr.OpLAnd, eq(v("x"), c(2)), eq(v("y"), c(3)))
	m := checkSat(t, []*expr.Expr{con})
	if m["x"] != 2 || m["y"] != 3 {
		t.Fatalf("bad model %v", m)
	}
}

func TestMayMustBeTrue(t *testing.T) {
	s := New()
	path := []*expr.Expr{expr.Binary(expr.OpGt, v("x"), c(5))}
	may, _ := s.MayBeTrue(path, eq(v("x"), c(6)))
	if !may {
		t.Fatal("x==6 should be possible under x>5")
	}
	may, _ = s.MayBeTrue(path, eq(v("x"), c(5)))
	if may {
		t.Fatal("x==5 must be impossible under x>5")
	}
	must, _ := s.MustBeTrue(path, expr.Binary(expr.OpGe, v("x"), c(6)))
	if !must {
		t.Fatal("x>=6 is implied by x>5")
	}
	must, _ = s.MustBeTrue(path, expr.Binary(expr.OpGe, v("x"), c(7)))
	if must {
		t.Fatal("x>=7 is not implied by x>5")
	}
}

func TestCacheHit(t *testing.T) {
	s := New()
	cs := []*expr.Expr{eq(v("x"), c(4))}
	s.Check(cs)
	q := s.Queries
	h := s.CacheHits
	s.Check(cs)
	if s.Queries != q+1 || s.CacheHits != h+1 {
		t.Fatalf("second identical query should hit the cache (queries=%d hits=%d)", s.Queries, s.CacheHits)
	}
}

func TestBudgetYieldsUnknown(t *testing.T) {
	s := New()
	s.MaxNodes = 1
	// A constraint needing real search.
	cs := []*expr.Expr{
		eq(expr.Binary(expr.OpMul, v("x"), v("y")), c(221)),
		expr.Binary(expr.OpGt, v("x"), c(1)),
		expr.Binary(expr.OpGt, v("y"), c(1)),
	}
	res, _ := s.Check(cs)
	if res == Sat {
		t.Skip("solved within one node; acceptable")
	}
	if res != Unknown {
		t.Fatalf("tiny budget should give unknown, got %v", res)
	}
}

// Property test: for random small linear systems, the solver's verdict
// matches brute force over a small box.
func TestRandomLinearAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vars := []string{"a", "b"}
	const lo, hi = -6, 6
	for iter := 0; iter < 300; iter++ {
		// Build 1-3 random constraints: c1*a + c2*b REL k, bounded box.
		var cs []*expr.Expr
		for _, vn := range vars {
			cs = append(cs,
				expr.Binary(expr.OpGe, v(vn), c(lo)),
				expr.Binary(expr.OpLe, v(vn), c(hi)))
		}
		n := 1 + r.Intn(3)
		ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
		for i := 0; i < n; i++ {
			c1 := int64(r.Intn(5) - 2)
			c2 := int64(r.Intn(5) - 2)
			k := int64(r.Intn(13) - 6)
			lhs := expr.Binary(expr.OpAdd,
				expr.Binary(expr.OpMul, c(c1), v("a")),
				expr.Binary(expr.OpMul, c(c2), v("b")))
			cs = append(cs, expr.Binary(ops[r.Intn(len(ops))], lhs, c(k)))
		}
		// Brute force ground truth.
		want := false
	brute:
		for a := int64(lo); a <= hi; a++ {
			for b := int64(lo); b <= hi; b++ {
				env := map[string]int64{"a": a, "b": b}
				all := true
				for _, cc := range cs {
					vv, err := cc.Eval(env)
					if err != nil || vv == 0 {
						all = false
						break
					}
				}
				if all {
					want = true
					break brute
				}
			}
		}
		s := New()
		res, model := s.Check(cs)
		if want && res != Sat {
			t.Fatalf("iter %d: brute force sat but solver says %v: %v", iter, res, cs)
		}
		if !want && res == Sat {
			t.Fatalf("iter %d: brute force unsat but solver found model %v: %v", iter, model, cs)
		}
	}
}

func TestModelString(t *testing.T) {
	s := Model(map[string]int64{"b": 2, "a": 1})
	if s != "a=1 b=2" {
		t.Fatalf("Model() = %q", s)
	}
}

// divisionLadder is the ls4 component shape that once leaked an unsound Sat
// into every cache tier: linear range bounds (which propagation folds into
// the domain and drops) plus a ladder of division guards where (x/8) <= 8
// and (x/8) > 8 are jointly unsatisfiable.
func divisionLadder() []*expr.Expr {
	div8 := expr.Binary(expr.OpDiv, v("x"), c(8))
	cs := []*expr.Expr{
		expr.Binary(expr.OpGe, v("x"), c(8)),
		expr.Binary(expr.OpLe, v("x"), c(1<<40)),
	}
	for k := int64(1); k <= 8; k++ {
		cs = append(cs, expr.Binary(expr.OpGt, div8, c(k)))
	}
	return append(cs, expr.Binary(expr.OpLe, div8, c(8)))
}

// TestDivisionLadderNotSat pins the end-to-end soundness of the ladder:
// whatever the budget allows, Check must never answer Sat for it.
func TestDivisionLadderNotSat(t *testing.T) {
	s := New()
	if res, model := s.Check(divisionLadder()); res == Sat {
		t.Fatalf("unsat division component answered Sat with model %v", model)
	}
}

// TestPropagateLeavesInputIntact pins the fix for the cache-poisoning bug
// the ladder exposed: propagate used to filter the caller's slice in place,
// so once it folded the linear bounds the caller was left holding a
// compacted set with stale duplicates in the tail. search's bisection
// fallback re-searches the slice it was handed and checkComponent
// re-verifies models against it, so the scramble silently weakened both —
// an unsound Sat survived verification and was published under the pristine
// structural keys. The caller's slice must come back element-for-element
// identical.
func TestPropagateLeavesInputIntact(t *testing.T) {
	cs := divisionLadder()
	orig := append([]*expr.Expr(nil), cs...)
	st := &searchState{
		solver:  New(),
		budget:  1000,
		domains: map[string]interval{"x": fullInterval()},
	}
	remaining, res := st.propagate(cs)
	if res == Sat {
		t.Fatalf("propagate answered Sat for an unsat ladder")
	}
	if len(remaining) >= len(cs) && res == Unknown {
		t.Fatalf("propagate folded nothing: the test no longer exercises the in-place filter")
	}
	for i := range orig {
		if cs[i] != orig[i] {
			t.Fatalf("propagate mutated the caller's slice at %d: got %v, want %v", i, cs[i], orig[i])
		}
	}
}

// satLadder is a satisfiable one-variable ladder mixing division and
// remainder guards with linear bounds; its solutions are x = 41, 44 and 47.
func satLadder() []*expr.Expr {
	return []*expr.Expr{
		eq(expr.Binary(expr.OpDiv, v("x"), c(8)), c(5)),
		eq(expr.Binary(expr.OpMod, v("x"), c(3)), c(2)),
		expr.Binary(expr.OpGe, v("x"), c(8)),
		expr.Binary(expr.OpLe, v("x"), c(1<<40)),
	}
}

// TestCheckBudgetEdges pins the node accounting of the case split: at every
// MaxNodes below the first budget that decides, a fresh solver must answer
// Unknown, and at that budget it must give exactly the recorded verdict and
// model. The table was recorded on the solver before case splits rejected
// candidates by concrete evaluation; the reject charges one node per
// candidate exactly as the substituted search did, so the table must not move.
func TestCheckBudgetEdges(t *testing.T) {
	cases := []struct {
		name    string
		cs      []*expr.Expr
		decides int // first MaxNodes that does not answer Unknown
		res     Result
		model   map[string]int64
	}{
		{"divisionLadder", divisionLadder(), 206, Unsat, nil},
		{"satLadder", satLadder(), 171, Sat, map[string]int64{"x": 41}},
	}
	for _, tc := range cases {
		for n := 1; n <= tc.decides; n++ {
			s := New()
			s.MaxNodes = n
			res, model := s.Check(tc.cs)
			want, wantModel := Unknown, map[string]int64(nil)
			if n == tc.decides {
				want, wantModel = tc.res, tc.model
			}
			if res != want || Model(model) != Model(wantModel) || (model == nil) != (wantModel == nil) {
				t.Fatalf("%s at MaxNodes=%d: got %v %v, want %v %v", tc.name, n, res, model, want, wantModel)
			}
		}
	}
}

// Property test: non-linear conjuncts — division and remainder by constants
// (zero included) and if-then-else over one or two boxed variables — never
// flip a verdict against brute force. A conjunct that fails to evaluate
// (division by zero) counts as false, as in model verification; the solver
// may answer Unknown where it cannot decide, but never the opposite verdict.
func TestRandomNonlinearAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const lo, hi = -6, 6
	rels := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	for iter := 0; iter < 400; iter++ {
		vars := []string{"a", "b"}[:1+r.Intn(2)]
		pick := func() *expr.Expr { return v(vars[r.Intn(len(vars))]) }
		lin := func() *expr.Expr {
			return expr.Binary(expr.OpAdd,
				expr.Binary(expr.OpMul, c(int64(r.Intn(5)-2)), pick()),
				c(int64(r.Intn(7)-3)))
		}
		term := func() *expr.Expr {
			switch r.Intn(4) {
			case 0:
				return expr.Binary(expr.OpDiv, lin(), c(int64(r.Intn(7)-3)))
			case 1:
				return expr.Binary(expr.OpMod, lin(), c(int64(r.Intn(7)-3)))
			case 2:
				cond := expr.Binary(rels[r.Intn(len(rels))], pick(), c(int64(r.Intn(9)-4)))
				return expr.Ite(cond, lin(), expr.Binary(expr.OpDiv, pick(), c(int64(r.Intn(5)-2))))
			default:
				return lin()
			}
		}
		var cs []*expr.Expr
		for _, vn := range vars {
			cs = append(cs,
				expr.Binary(expr.OpGe, v(vn), c(lo)),
				expr.Binary(expr.OpLe, v(vn), c(hi)))
		}
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			cs = append(cs, expr.Binary(rels[r.Intn(len(rels))], term(), c(int64(r.Intn(9)-4))))
		}
		want := false
		env := map[string]int64{"a": 0, "b": 0}
	brute:
		for a := int64(lo); a <= hi; a++ {
			for b := int64(lo); b <= hi; b++ {
				env["a"], env["b"] = a, b
				if modelSatisfies(cs, env) {
					want = true
					break brute
				}
			}
		}
		s := New()
		res, model := s.Check(cs)
		if want && res == Unsat {
			t.Fatalf("iter %d: brute force sat but solver says unsat: %v", iter, cs)
		}
		if !want && res == Sat {
			t.Fatalf("iter %d: brute force unsat but solver found model %v: %v", iter, model, cs)
		}
	}
}

// TestCandidateCounters checks that a cold solve reports its case-split
// candidates: the satisfiable ladder refutes most of them by evaluation and
// must search at least the one that satisfies it.
func TestCandidateCounters(t *testing.T) {
	rej, srch := candidatesRejected.Value(), candidatesSearched.Value()
	if res, _ := New().Check(satLadder()); res != Sat {
		t.Fatalf("satLadder: got %v, want sat", res)
	}
	dr, ds := candidatesRejected.Value()-rej, candidatesSearched.Value()-srch
	if ds < 1 || dr <= ds {
		t.Fatalf("candidates rejected=%d searched=%d: want some searched and more rejected", dr, ds)
	}
}
