// Benchmarks regenerating the paper's evaluation (§7). One benchmark per
// table/figure; each b.N iteration performs the full synthesis run(s) the
// artifact reports, so ns/op is the synthesis time itself.
//
//	go test -bench=. -benchmem                   # everything (minutes)
//	go test -bench BenchmarkTable1 -benchtime 1x # one pass of Table 1
package esd_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"esd/internal/apps"
	"esd/internal/bpf"
	"esd/internal/exp"
	"esd/internal/search"
)

// benchCfg scales the paper's 1-hour per-bug cap down to 20s. Raise the
// timeout for paper-scale runs (esdexp -timeout accepts any cap).
func benchCfg() exp.Config {
	return exp.Config{Timeout: 20 * time.Second, Seed: 1}
}

// BenchmarkTable1 regenerates Table 1: ESD synthesis time per real bug.
func BenchmarkTable1(b *testing.B) {
	for _, a := range apps.Table1() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			prog, err := a.Program()
			if err != nil {
				b.Fatal(err)
			}
			rep, err := a.Coredump()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := search.Synthesize(context.Background(), prog, rep, search.Options{
					Strategy: search.StrategyESD,
					Budget:   benchCfg().Timeout,
					Seed:     benchCfg().Seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Found == nil {
					b.Fatalf("%s: not synthesized", a.Name)
				}
			}
		})
	}
}

// BenchmarkFigure2 regenerates Figure 2: ESD vs the two KC baselines per
// bug. Baseline sub-benchmarks are expected to hit the budget cap on the
// hard bugs (that IS the figure's result — bars that fade at the top).
func BenchmarkFigure2(b *testing.B) {
	kind := []struct {
		name  string
		strat search.Strategy
		bound int
	}{
		{"ESD", search.StrategyESD, 0},
		{"KC-DFS", search.StrategyDFS, 2},
		{"KC-RandPath", search.StrategyRandomPath, 2},
	}
	for _, a := range apps.Figure2() {
		a := a
		for _, k := range kind {
			k := k
			b.Run(fmt.Sprintf("%s/%s", a.Name, k.name), func(b *testing.B) {
				prog, err := a.Program()
				if err != nil {
					b.Fatal(err)
				}
				rep, err := a.Coredump()
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				found := false
				for i := 0; i < b.N; i++ {
					res, err := search.Synthesize(context.Background(), prog, rep, search.Options{
						Strategy:        k.strat,
						PreemptionBound: k.bound,
						Budget:          benchCfg().Timeout,
						Seed:            benchCfg().Seed,
					})
					if err != nil {
						b.Fatal(err)
					}
					found = res.Found != nil
				}
				if found {
					b.ReportMetric(1, "found")
				} else {
					b.ReportMetric(0, "found")
				}
			})
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: synthesis time vs branch count on
// the BPF programs (ESD and KC-RandPath series). The sweep is capped at
// 2^9 branches to keep a full -bench run in minutes; raise via esdexp
// -maxexp 11 for the paper's full range.
func BenchmarkFigure3(b *testing.B) {
	for _, p := range bpf.StandardConfigs() {
		if p.Branches > 1<<9 {
			break
		}
		p := p
		g, err := bpf.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := g.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rep, err := g.Coredump()
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []struct {
			name  string
			strat search.Strategy
			bound int
		}{
			{"ESD", search.StrategyESD, 0},
			{"KC", search.StrategyRandomPath, 2},
		} {
			k := k
			b.Run(fmt.Sprintf("branches=%d/%s", p.Branches, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := search.Synthesize(context.Background(), prog, rep, search.Options{
						Strategy:        k.strat,
						PreemptionBound: k.bound,
						Budget:          benchCfg().Timeout,
						Seed:            benchCfg().Seed,
					})
					if err != nil {
						b.Fatal(err)
					}
					if k.name == "ESD" && res.Found == nil {
						b.Fatalf("ESD failed at %d branches", p.Branches)
					}
				}
			})
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: ESD synthesis time keyed by
// program size (KLOC). Same runs as Figure 3; the KLOC metric is attached
// per sub-benchmark.
func BenchmarkFigure4(b *testing.B) {
	for _, p := range bpf.StandardConfigs() {
		if p.Branches > 1<<9 {
			break
		}
		p := p
		g, err := bpf.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := g.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rep, err := g.Coredump()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("kloc=%.2f", float64(g.Lines)/1000), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := search.Synthesize(context.Background(), prog, rep, search.Options{
					Strategy: search.StrategyESD,
					Budget:   benchCfg().Timeout,
					Seed:     benchCfg().Seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Found == nil {
					b.Fatalf("ESD failed at %.2f KLOC", float64(g.Lines)/1000)
				}
			}
			b.ReportMetric(float64(g.Lines)/1000, "KLOC")
		})
	}
}

// BenchmarkAblation quantifies the three search-focusing techniques
// (proximity guidance, intermediate goals, critical-edge pruning) on the
// Listing 1 deadlock — the §3.3 claim that they buy orders of magnitude.
func BenchmarkAblation(b *testing.B) {
	a := apps.Get("listing1")
	prog, err := a.Program()
	if err != nil {
		b.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		opt  search.Options
	}{
		{"full", search.Options{}},
		{"no-proximity", search.Options{Ablate: search.Ablate{NoProximity: true}}},
		{"no-intermediate-goals", search.Options{Ablate: search.Ablate{NoIntermediateGoals: true}}},
		{"no-pruning", search.Options{Ablate: search.Ablate{NoCriticalEdges: true}}},
		{"none", search.Options{Ablate: search.Ablate{
			NoProximity: true, NoIntermediateGoals: true, NoCriticalEdges: true}}},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := v.opt
				opt.Strategy = search.StrategyESD
				opt.Budget = benchCfg().Timeout
				opt.Seed = benchCfg().Seed
				res, err := search.Synthesize(context.Background(), prog, rep, opt)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkSolver measures raw constraint-solver throughput on the
// Listing-1-shaped query mix (supporting microbenchmark).
func BenchmarkSolver(b *testing.B) {
	a := apps.Get("listing1")
	prog, err := a.Program()
	if err != nil {
		b.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := search.Synthesize(context.Background(), prog, rep, search.Options{
			Strategy: search.StrategyESD, Budget: benchCfg().Timeout, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SolverQueries), "queries")
	}
}
