package expr

import (
	"math/rand"
	"testing"
)

// reinternTree rebuilds e child-first through Reintern, as checkpoint
// decoding does, and requires every node to come back as itself.
func reinternTree(t *testing.T, e *Expr, seen map[*Expr]bool) {
	t.Helper()
	if e == nil || seen[e] {
		return
	}
	seen[e] = true
	for _, ch := range [...]*Expr{e.A, e.B, e.T, e.F} {
		reinternTree(t, ch, seen)
	}
	got, err := Reintern(e.Op, e.C, e.Name, e.A, e.B, e.T, e.F)
	if err != nil {
		t.Fatalf("Reintern(%s): %v", e, err)
	}
	if got != e {
		t.Fatalf("Reintern(%s) returned a different node %s", e, got)
	}
}

// Property: every constructor output is a fixed point of its constructor,
// so Reintern accepts it and returns the canonical node.
func TestReinternAcceptsConstructorOutput(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	seen := map[*Expr]bool{}
	for i := 0; i < 2000; i++ {
		reinternTree(t, randomTermOver(r, 6, "x", "y", "z"), seen)
	}
}

// TestReinternRejectsForgedShapes pins the shapes a hostile or corrupt
// checkpoint could record but no constructor makes.
func TestReinternRejectsForgedShapes(t *testing.T) {
	x, y := Var("x"), Var("y")
	cases := []struct {
		name         string
		op           Op
		c            int64
		n            string
		a, b, tt, ff *Expr
	}{
		{"add of two constants", OpAdd, 0, "", Const(1), Const(2), nil, nil},
		{"binary carrying a name", OpAdd, 0, "x", x, y, nil, nil},
		{"binary carrying a constant", OpMul, 3, "", x, y, nil, nil},
		{"constant on the left of <", OpLt, 0, "", Const(5), x, nil, nil},
		{"double negation", OpNeg, 0, "", Unary(OpNeg, x), nil, nil, nil},
		{"ite with equal arms", OpIte, 0, "", x, nil, y, y},
		{"const with a child", OpConst, 4, "", x, nil, nil, nil},
		{"var with a constant", OpVar, 1, "x", nil, nil, nil, nil},
		{"var without a name", OpVar, 0, "", nil, nil, nil, nil},
		{"unary missing its operand", OpNot, 0, "", nil, nil, nil, nil},
		{"binary missing an operand", OpEq, 0, "", x, nil, nil, nil},
		{"unknown op", Op(99), 0, "", nil, nil, nil, nil},
		{"negative op", Op(-1), 0, "", nil, nil, nil, nil},
	}
	for _, tc := range cases {
		if e, err := Reintern(tc.op, tc.c, tc.n, tc.a, tc.b, tc.tt, tc.ff); err == nil {
			t.Errorf("%s: accepted as %s", tc.name, e)
		}
	}
}
