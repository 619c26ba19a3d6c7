package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"esd/internal/cfa"
	"esd/internal/lang"
	"esd/internal/mir"
)

// scorerEdgeStacks extends the reachable configurations with the stacks
// that exercise Min's break conditions: an unknown function innermost and
// outermost, out-of-range blocks and indices, and every two-frame stack
// (which puts frames below each non-returning location of the program).
func scorerEdgeStacks(p *mir.Program, configs [][]mir.Loc) [][]mir.Loc {
	locs := allLocs(p)
	bad := []mir.Loc{
		{Fn: "nosuch"},
		{Fn: "main", Block: 99},
		{Fn: "main", Block: -1},
		{Fn: "main", Index: 999},
		{Fn: "main", Index: -1},
	}
	out := append([][]mir.Loc(nil), configs...)
	for _, cfg := range configs {
		for _, b := range bad {
			out = append(out,
				append(append([]mir.Loc(nil), cfg...), b),
				append([]mir.Loc{b}, cfg...))
		}
	}
	for _, a := range locs {
		for _, b := range locs {
			out = append(out, []mir.Loc{a, b})
		}
	}
	return out
}

// Min's per-goal result must equal StateDistance for every goal, over
// random programs, their reachable stacks, and the edge stacks.
func TestScorerMatchesStateDistance(t *testing.T) {
	progs := []*mir.Program{buildLinear()}
	for seed := int64(1); seed <= 12; seed++ {
		progs = append(progs, genProgram(rand.New(rand.NewSource(seed))))
	}
	var belowNonReturning int
	for _, prog := range progs {
		c := NewCalculator(prog)
		// Duplicate and unknown goals are legal: each index answers for
		// its own goal.
		goals := append(allLocs(prog), mir.Loc{Fn: "nosuch"}, mir.Loc{Fn: "main", Block: 99})
		goals = append(goals, goals[0])
		sc := c.Scorer(goals)
		best := make([]int64, len(goals))
		configs := collectConfigs(prog, []mir.Loc{{Fn: "main"}}, 8, 40)
		for _, stack := range scorerEdgeStacks(prog, configs) {
			if len(stack) == 2 && c.DistToReturn(stack[1]) >= Infinite {
				belowNonReturning++
			}
			for k := range best {
				best[k] = Infinite
			}
			sc.Min(stack, best)
			for k, g := range goals {
				if want := c.StateDistance(stack, g); best[k] != want {
					t.Fatalf("%s: stack %v goal %v: Scorer=%d StateDistance=%d\n%s",
						prog.Name, stack, g, best[k], want, prog)
				}
			}
		}
	}
	if belowNonReturning == 0 {
		t.Fatal("no stack put a frame below a non-returning location")
	}
}

// Min only lowers: a smaller incoming best[k] survives, which is what lets
// the search fold several threads into one vector. Each walk counts one
// lookup per goal.
func TestScorerMinFoldsThreads(t *testing.T) {
	prog := buildLinear()
	c := NewCalculator(prog)
	goals := allLocs(prog)
	sc := c.Scorer(goals)
	a := []mir.Loc{loc("main", 0, 0)}
	b := []mir.Loc{loc("main", 1, 0)}
	best := make([]int64, len(goals))
	for k := range best {
		best[k] = Infinite
	}
	lookups := distLookups.With("steps")
	before := lookups.Value()
	sc.Min(a, best)
	sc.Min(b, best)
	if got := lookups.Value() - before; got != int64(2*len(goals)) {
		t.Errorf("two walks over %d goals counted %d lookups, want %d", len(goals), got, 2*len(goals))
	}
	for k, g := range goals {
		want := min(c.StateDistance(a, g), c.StateDistance(b, g))
		if best[k] != want {
			t.Errorf("goal %v: folded %d, want min over threads %d", g, best[k], want)
		}
	}
}

// BenchmarkScorerMin measures the search's per-thread scoring walk on
// BenchmarkStateDistance's program and stack, over every goal one plan of
// that program resolves (the final goal and all its intermediate goals).
// It must not allocate.
func BenchmarkScorerMin(b *testing.B) {
	prog, stack, goal := benchChain()
	cg := cfa.BuildCallGraph(prog)
	a, err := cfa.AnalyzeWith(cg, goal)
	if err != nil {
		b.Fatal(err)
	}
	goals := []mir.Loc{goal}
	for _, set := range a.IntermediateGoals {
		goals = append(goals, set...)
	}
	sc := NewCalculatorWith(cg).Scorer(goals)
	best := make([]int64, len(goals))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range best {
			best[k] = Infinite
		}
		sc.Min(stack, best)
	}
	if best[0] >= Infinite {
		b.Fatalf("bench stack unexpectedly infinite for %v", goal)
	}
}

// benchChain is the distance benchmarks' program: a chain of 40 functions
// so tables are non-trivial, a three-frame stack into it, and a goal at
// the bottom of the chain.
func benchChain() (*mir.Program, []mir.Loc, mir.Loc) {
	src := "int f0(int v) { return v + 1; }\n"
	for i := 1; i < 40; i++ {
		src += fmt.Sprintf("int f%d(int v) { if (v > %d) return f%d(v) + 2; return f%d(v + 1); }\n",
			i, i, i-1, i-1)
	}
	src += "int main() { int x = input(\"x\"); return f39(x); }\n"
	stack := []mir.Loc{
		{Fn: "main", Block: 0, Index: 2},
		{Fn: "f39", Block: 1, Index: 0},
		{Fn: "f38", Block: 1, Index: 0},
	}
	return lang.MustCompile("bench.c", src), stack, mir.Loc{Fn: "f0", Block: 0, Index: 0}
}
