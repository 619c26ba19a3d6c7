package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  *Expr
		want int64
	}{
		{Binary(OpAdd, Const(2), Const(3)), 5},
		{Binary(OpSub, Const(2), Const(3)), -1},
		{Binary(OpMul, Const(4), Const(3)), 12},
		{Binary(OpDiv, Const(7), Const(2)), 3},
		{Binary(OpMod, Const(7), Const(2)), 1},
		{Binary(OpAnd, Const(6), Const(3)), 2},
		{Binary(OpOr, Const(6), Const(3)), 7},
		{Binary(OpXor, Const(6), Const(3)), 5},
		{Binary(OpShl, Const(1), Const(4)), 16},
		{Binary(OpShr, Const(-8), Const(1)), -4},
		{Binary(OpEq, Const(3), Const(3)), 1},
		{Binary(OpNe, Const(3), Const(3)), 0},
		{Binary(OpLt, Const(-1), Const(0)), 1},
		{Binary(OpGe, Const(-1), Const(0)), 0},
		{Unary(OpNeg, Const(5)), -5},
		{Unary(OpNot, Const(0)), 1},
		{Unary(OpNot, Const(7)), 0},
		{Unary(OpBNot, Const(0)), -1},
		{Ite(Const(1), Const(10), Const(20)), 10},
		{Ite(Const(0), Const(10), Const(20)), 20},
		{Binary(OpLAnd, Const(2), Const(3)), 1},
		{Binary(OpLOr, Const(0), Const(0)), 0},
	}
	for i, c := range cases {
		v, ok := c.got.IsConst()
		if !ok {
			t.Fatalf("case %d: not folded to constant: %v", i, c.got)
		}
		if v != c.want {
			t.Errorf("case %d: got %d, want %d", i, v, c.want)
		}
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	e := Binary(OpDiv, Const(1), Const(0))
	if _, ok := e.IsConst(); ok {
		t.Fatal("division by zero must not fold")
	}
	if _, err := e.Eval(nil); err == nil {
		t.Fatal("Eval of 1/0 should error")
	}
}

func TestIdentities(t *testing.T) {
	x := Var("x")
	if e := Binary(OpAdd, x, Const(0)); !e.Equal(x) {
		t.Errorf("x+0 != x: %v", e)
	}
	if e := Binary(OpMul, Const(1), x); !e.Equal(x) {
		t.Errorf("1*x != x: %v", e)
	}
	if e := Binary(OpMul, x, Const(0)); !isConstVal(e, 0) {
		t.Errorf("x*0 != 0: %v", e)
	}
	if e := Binary(OpSub, x, x); !isConstVal(e, 0) {
		t.Errorf("x-x != 0: %v", e)
	}
	if e := Binary(OpEq, x, x); !isConstVal(e, 1) {
		t.Errorf("x==x != 1: %v", e)
	}
	if e := Binary(OpLAnd, Const(0), x); !isConstVal(e, 0) {
		t.Errorf("0&&x != 0: %v", e)
	}
	if e := Binary(OpLOr, Const(5), x); !isConstVal(e, 1) {
		t.Errorf("5||x != 1: %v", e)
	}
}

func isConstVal(e *Expr, v int64) bool {
	c, ok := e.IsConst()
	return ok && c == v
}

func TestNotNormalization(t *testing.T) {
	x, y := Var("x"), Var("y")
	cases := []struct{ in, want *Expr }{
		{Not(Binary(OpEq, x, y)), Binary(OpNe, x, y)},
		{Not(Binary(OpLt, x, y)), Binary(OpGe, x, y)},
		{Not(Binary(OpGe, x, y)), Binary(OpLt, x, y)},
		{Not(Not(Binary(OpEq, x, y))), Binary(OpEq, x, y)},
	}
	for i, c := range cases {
		if !c.in.Equal(c.want) {
			t.Errorf("case %d: got %v want %v", i, c.in, c.want)
		}
	}
}

func TestConstNormalizedRight(t *testing.T) {
	x := Var("x")
	e := Binary(OpLt, Const(3), x) // 3 < x  =>  x > 3
	if e.Op != OpGt {
		t.Fatalf("3<x not normalized, got %v", e)
	}
	if _, ok := e.B.IsConst(); !ok {
		t.Fatalf("constant not on the right: %v", e)
	}
}

func TestEvalAndSubstitute(t *testing.T) {
	x, y := Var("x"), Var("y")
	e := Binary(OpAdd, Binary(OpMul, x, Const(3)), y)
	v, err := e.Eval(map[string]int64{"x": 4, "y": 5})
	if err != nil || v != 17 {
		t.Fatalf("eval: got %d, %v", v, err)
	}
	e2 := e.Substitute("x", Const(4))
	v2, err := e2.Eval(map[string]int64{"y": 5})
	if err != nil || v2 != 17 {
		t.Fatalf("substituted eval: got %d, %v", v2, err)
	}
	if _, err := e.Eval(map[string]int64{"x": 1}); err == nil {
		t.Fatal("unbound variable should error")
	}
}

func TestVars(t *testing.T) {
	e := Binary(OpAdd, Var("b"), Binary(OpMul, Var("a"), Var("b")))
	got := e.Vars()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Vars = %v", got)
	}
}

func TestHashEqualConsistency(t *testing.T) {
	a := Binary(OpAdd, Var("x"), Const(1))
	b := Binary(OpAdd, Var("x"), Const(1))
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatal("structurally equal terms must have equal hashes")
	}
	c := Binary(OpAdd, Var("x"), Const(2))
	if a.Equal(c) {
		t.Fatal("distinct terms compare equal")
	}
}

// randomTerm builds a random term over vars x,y with bounded depth.
func randomTerm(r *rand.Rand, depth int) *Expr {
	return randomTermOver(r, depth, "x", "y")
}

// edgeConsts are leaf constants that sit on the definedness boundaries of
// division, remainder and shifts: zero divisors, negative and out-of-range
// shift amounts.
var edgeConsts = []int64{0, -1, 63, 64, 65, -64, 1 << 40}

// randomTermOver builds a random term over the given variables with bounded
// depth, drawing from every arithmetic, comparison and logical operator,
// the unary operators and if-then-else.
func randomTermOver(r *rand.Rand, depth int, vars ...string) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch n := r.Intn(len(vars) + 2); n {
		case 0:
			return Const(int64(r.Intn(21) - 10))
		case 1:
			return Const(edgeConsts[r.Intn(len(edgeConsts))])
		default:
			return Var(vars[n-2])
		}
	}
	sub := func() *Expr { return randomTermOver(r, depth-1, vars...) }
	switch r.Intn(8) {
	case 0:
		return Unary([]Op{OpNeg, OpNot, OpBNot}[r.Intn(3)], sub())
	case 1:
		return Ite(sub(), sub(), sub())
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLAnd, OpLOr}
	op := ops[r.Intn(len(ops))]
	return Binary(op, sub(), sub())
}

// Property: simplification preserves meaning — a randomly built term and
// its substituted/folded form evaluate identically.
func TestSimplificationSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		e := randomTerm(r, 4)
		xv := int64(r.Intn(11) - 5)
		yv := int64(r.Intn(11) - 5)
		env := map[string]int64{"x": xv, "y": yv}
		want, err := e.Eval(env)
		if err != nil {
			continue
		}
		sub := e.Substitute("x", Const(xv)).Substitute("y", Const(yv))
		got, ok := sub.IsConst()
		if !ok {
			gv, err := sub.Eval(nil)
			if err != nil {
				t.Fatalf("iter %d: substituted term not closed: %v", i, sub)
			}
			got = gv
		}
		if got != want {
			t.Fatalf("iter %d: %v: eval=%d substituted=%d (x=%d y=%d)", i, e, want, got, xv, yv)
		}
	}
}

// Property: for a single-variable term, a defined concrete evaluation and
// substitution agree exactly — e.Eval({x: val}) = k implies that
// substituting val for x folds all the way down to the interned Const(k).
// The solver's case split relies on this to reject a candidate by
// evaluating a conjunct instead of rewriting the whole constraint set, so
// unlike TestSimplificationSoundness a non-constant result that merely
// evaluates equal is a failure here.
func TestEvalDefinedImpliesSubstituteConst(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vals := []int64{0, 1, -1, 2, 7, 63, 64, 65, -64, 1 << 40}
	defined := 0
	for i := 0; i < 20000; i++ {
		e := randomTermOver(r, 5, "x")
		val := int64(r.Intn(41) - 20)
		if r.Intn(3) == 0 {
			val = vals[r.Intn(len(vals))]
		}
		want, err := e.Eval(map[string]int64{"x": val})
		if err != nil {
			continue
		}
		defined++
		if got := e.Substitute("x", Const(val)); got != Const(want) {
			t.Fatalf("iter %d: %v at x=%d: Eval=%d but Substitute gave %v", i, e, val, want, got)
		}
	}
	if defined < 10000 {
		t.Fatalf("only %d of 20000 terms evaluated: the generator no longer exercises the property", defined)
	}
}

// Property (testing/quick): Not(e) evaluates to the boolean complement.
func TestNotComplement(t *testing.T) {
	f := func(x, y int8) bool {
		env := map[string]int64{"x": int64(x), "y": int64(y)}
		e := Binary(OpLt, Var("x"), Var("y"))
		a, err1 := e.Eval(env)
		b, err2 := Not(e).Eval(env)
		if err1 != nil || err2 != nil {
			return false
		}
		return (a != 0) != (b != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
