package expr

import "fmt"

// This file is the checkpoint-restore door into the interner. A search
// checkpoint serializes its constraint terms structurally (op, constant,
// name, child indices) and must rebuild them as interned nodes on load —
// possibly in a different process, or in the same process after reclaim
// sweeps have advanced the interner epoch and evicted the originals.
//
// Every interned term is a fixed point of its constructor: rebuilding a
// node from its (canonical) children through Const, Var, Unary, Binary or
// Ite returns the node itself. Reintern uses that as its check. It
// rebuilds each recorded node through its constructor and accepts it only
// when the result has exactly the recorded op, constant, name and child
// pointers. A shape no constructor makes (add(1, 2), a binary node that
// carries a name) would alias its simplified form under a different
// pointer and break pointer equality, so it is rejected instead.

// Reintern returns the canonical interned node for a recorded shape whose
// children are already reinterned, or an error when no constructor
// produces that shape.
func Reintern(op Op, c int64, name string, a, b, t, f *Expr) (*Expr, error) {
	var e *Expr
	switch op {
	case OpConst:
		e = Const(c)
	case OpVar:
		if name == "" {
			return nil, fmt.Errorf("expr: var shape with empty name")
		}
		e = Var(name)
	case OpNeg, OpNot, OpBNot:
		if a == nil {
			return nil, fmt.Errorf("expr: malformed unary %s shape", op)
		}
		e = Unary(op, a)
	case OpIte:
		if a == nil || t == nil || f == nil {
			return nil, fmt.Errorf("expr: malformed ite shape")
		}
		e = Ite(a, t, f)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLAnd, OpLOr:
		if a == nil || b == nil {
			return nil, fmt.Errorf("expr: malformed binary %s shape", op)
		}
		e = Binary(op, a, b)
	default:
		return nil, fmt.Errorf("expr: unknown op %d in serialized term", int(op))
	}
	if e.Op != op || e.C != c || e.Name != name || e.A != a || e.B != b || e.T != t || e.F != f {
		return nil, fmt.Errorf("expr: serialized %s term is not in canonical form", op)
	}
	return e, nil
}
