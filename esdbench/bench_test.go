package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"esd/internal/apps"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{1, 100, 1},   // too few samples: the maximum
		{19, 100, 19}, // the tenth from the top would be below the median
		{20, 50, 10},  // ten beyond
		{100, 90, 90}, // ten beyond
		{140, 100 * 130.0 / 140, 130},
		{1000, 99, 990}, // ten beyond
		{10000, 99.9, 9990},
	} {
		pct, v := tailPercentile(seq(tc.n))
		if math.Abs(pct-tc.pct) > 1e-9 || v != tc.want {
			t.Errorf("n=%d: got p%g=%g, want p%g=%g", tc.n, pct, v, tc.pct, tc.want)
		}
		if beyond := tc.n - int(v); pct < 100 && beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond p%g, want %d", tc.n, beyond, pct, minBeyond)
		}
	}
}

func TestRequestStream(t *testing.T) {
	names := serviceApps()
	if len(names) != 15 {
		t.Fatalf("%d service apps, want the 15 bundled apps but ls3 and ls4", len(names))
	}
	const rounds = 40
	a := requestStream(7, names, rounds)
	if b := requestStream(7, names, rounds); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different streams")
	}
	if c := requestStream(8, names, rounds); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same stream")
	}
	if len(a) != rounds*len(names) {
		t.Fatalf("%d requests, want %d", len(a), rounds*len(names))
	}
	tags := map[string]bool{}
	for r := 0; r < rounds; r++ {
		round := a[r*len(names) : (r+1)*len(names)]
		seen := map[string]bool{}
		novel := 0
		for _, q := range round {
			seen[q.App] = true
			if q.Tag != "" {
				novel++
				if tags[q.Tag] {
					t.Fatalf("variant tag %q sent twice", q.Tag)
				}
				tags[q.Tag] = true
			}
		}
		if len(seen) != len(names) {
			t.Fatalf("round %d sends %d distinct apps, want all %d", r, len(seen), len(names))
		}
		if novel != novelPerRound {
			t.Fatalf("round %d has %d novel requests, want %d", r, novel, novelPerRound)
		}
	}
}

func TestVariantsAreDistinctProgramsWithTheSameBug(t *testing.T) {
	for _, a := range apps.All() {
		orig, err := makeVariant(a, "")
		if err != nil {
			t.Fatal(err)
		}
		origProg, origRep, err := orig.build()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		fps := map[uint64]string{origProg.Fingerprint(): "original"}
		for _, tag := range []string{"v1r0", "v2r9"} {
			v, err := makeVariant(a, tag)
			if err != nil {
				t.Fatal(err)
			}
			prog, rep, err := v.build()
			if err != nil {
				t.Fatalf("%s %s: %v", a.Name, tag, err)
			}
			if prev, dup := fps[prog.Fingerprint()]; dup {
				t.Errorf("%s %s: same fingerprint as %s", a.Name, tag, prev)
			}
			fps[prog.Fingerprint()] = tag
			if rep.Kind != origRep.Kind {
				t.Errorf("%s %s: fails with %v, want %v", a.Name, tag, rep.Kind, origRep.Kind)
			}
			if got, want := v.originalLocs(rep), orig.originalLocs(origRep); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: fails at %v, want %v", a.Name, tag, got, want)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	add := func(name string, parent int, start, end int64) int {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
		return len(tr.spans)
	}
	root := add("op", 0, 0, 100)
	add("a", root, 10, 30)
	add("a", root, 20, 50)  // overlaps the first child: covered once
	add("b", root, 90, 120) // runs past its parent: clipped
	open := add("c", root, 60, openEnd)
	add("d", open, 61, 62) // child of a span still open
	syn := add("syn", 0, 200, 300)
	tr.derive(syn, []namedDur{{"search.self", 40}, {"solver.check", 35}, {"skipped", 0}})

	got := selfTimes(tr.snapshot())
	want := map[string]int64{"op": 100 - 40 - 10, "a": 20 + 30, "b": 30, "d": 1, "syn": 25, "search.self": 40, "solver.check": 35}
	for name, w := range want {
		if int64(got[name]) != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["c"]; ok {
		t.Error("an open span has a self time")
	}
	if _, ok := got["skipped"]; ok {
		t.Error("a zero-length counter became a span")
	}
}

// TestBenchmarkDefinition keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkDefinition(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, program prints %+v", def.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, program prints %+v", def.PerLayer, perLayer)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
}
