package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"esd/internal/apps"
	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/report"
	"esd/internal/usersite"
)

// mix derives the i-th 64-bit value from a workload seed (splitmix64), so
// every input a workload generates follows from --seed alone.
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

// userSiteSeeds bounds the user-site simulator's schedule search.
const userSiteSeeds = 40000

// coredump runs prog under the user-site simulator — concrete inputs, a
// randomly preempting scheduler — starting from schedule seed first, until
// the bug manifests, and returns the coredump-derived report. It is what
// the user ships to the developer, and all synthesis ever sees.
func coredump(prog *mir.Program, in *usersite.Inputs, opts usersite.Options, first int64) (*report.Report, error) {
	seeds := int64(opts.Seeds)
	if seeds == 0 || seeds > userSiteSeeds {
		seeds = userSiteSeeds
	}
	if opts.PreemptPercent == 0 {
		opts.PreemptPercent = 35
	}
	for s := first; s < first+seeds; s++ {
		st, err := usersite.RunOnce(prog, in, opts, s)
		if err != nil {
			return nil, err
		}
		if report.IsFailure(st) {
			return report.FromState(st)
		}
	}
	return nil, fmt.Errorf("user site: %s did not fail in %d runs", prog.Name, seeds)
}

// variant is a renamed copy of a bundled app: every function but main,
// every named input and every environment variable gets a suffix, and the
// file name changes. It compiles to a program with a new fingerprint
// (Program.Fingerprint) whose bug sits at the same locations, up to the
// renaming — a distinct program the server has never seen.
type variant struct {
	App    string
	File   string
	Source string
	Inputs *usersite.Inputs
	// Funcs maps each renamed function back to its original name.
	Funcs map[string]string
}

var inputLiteral = regexp.MustCompile(`\b(input|getenv)\("([A-Za-z0-9_]+)"\)`)

// makeVariant renames app a with tag; the tag "" returns the app as
// bundled.
func makeVariant(a *apps.App, tag string) (*variant, error) {
	v := &variant{App: a.Name, File: a.Name + ".c", Source: a.Source, Inputs: a.UserInputs, Funcs: map[string]string{}}
	if tag == "" {
		return v, nil
	}
	orig, err := a.Program()
	if err != nil {
		return nil, err
	}
	suffix := "_" + tag
	src := inputLiteral.ReplaceAllString(a.Source, `$1("${2}`+suffix+`")`)
	var names []string
	for _, fn := range orig.Order {
		if fn != "main" {
			names = append(names, regexp.QuoteMeta(fn))
			v.Funcs[fn+suffix] = fn
		}
	}
	if len(names) > 0 {
		// Longest first, so a name that prefixes another is not preferred.
		sort.Slice(names, func(i, j int) bool { return len(names[i]) > len(names[j]) })
		fnRe := regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
		src = fnRe.ReplaceAllString(src, "${1}"+suffix)
	}
	in := &usersite.Inputs{Stdin: a.UserInputs.Stdin}
	if a.UserInputs.Named != nil {
		in.Named = map[string]int64{}
		for k, x := range a.UserInputs.Named {
			in.Named[k+suffix] = x
		}
	}
	if a.UserInputs.Env != nil {
		in.Env = map[string]string{}
		for k, x := range a.UserInputs.Env {
			in.Env[k+suffix] = x
		}
	}
	v.File = a.Name + suffix + ".c"
	v.Source = src
	v.Inputs = in
	return v, nil
}

// build compiles the variant and takes its coredump with the user-site
// simulator (schedule seeds from 0, as the bundled fixtures do).
func (v *variant) build() (*mir.Program, *report.Report, error) {
	prog, err := lang.Compile(v.File, v.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("compiling %s: %w", v.File, err)
	}
	rep, err := coredump(prog, v.Inputs, apps.Get(v.App).Usersite, 0)
	if err != nil {
		return nil, nil, err
	}
	return prog, rep, nil
}

// originalLocs maps a variant report's failure locations back to the
// original function names — the fault location of a crash, or the wait
// locations of a deadlock — sorted for comparison.
func (v *variant) originalLocs(r *report.Report) []string {
	locs := r.Goals()
	out := make([]string, len(locs))
	for i, l := range locs {
		if o, ok := v.Funcs[l.Fn]; ok {
			l.Fn = o
		}
		out[i] = l.String()
	}
	sort.Strings(out)
	return out
}

// request is one entry of the serve-restart request stream.
type request struct {
	App string
	// Tag names the novel variant to send ("" = the app as bundled, a
	// program seen during set-up).
	Tag string
}

// novelPerRound of every round of len(apps) requests are novel variants:
// with the fifteen service apps, a fifth of all requests.
const novelPerRound = 3

// requestStream returns rounds×len(names) requests. Each round sends every
// app once, in a seed-drawn order, and exactly novelPerRound of them (at
// seed-drawn positions) as fresh variants; the rest reuse the programs
// seen in set-up. Fixing each round's mix keeps the share of cheap and
// costly apps identical across seeds, so only the order varies.
func requestStream(seed int64, names []string, rounds int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, 0, rounds*len(names))
	for r := 0; r < rounds; r++ {
		order := append([]string(nil), names...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		novel := rng.Perm(len(order))[:min(novelPerRound, len(order))]
		isNovel := map[int]bool{}
		for _, i := range novel {
			isNovel[i] = true
		}
		for i, name := range order {
			req := request{App: name}
			if isNovel[i] {
				req.Tag = fmt.Sprintf("v%dr%d", uint64(seed)%1000003, len(out))
			}
			out = append(out, req)
		}
	}
	return out
}

// serviceApps are the bundled apps the serve-restart clients draw from:
// all but ls3 and ls4, whose seconds-long searches would turn a request
// mix into a search benchmark (ls4-seq and the ls3 workloads cover those).
func serviceApps() []string {
	var out []string
	for _, a := range apps.All() {
		if a.Name != "ls3" && a.Name != "ls4" {
			out = append(out, a.Name)
		}
	}
	return out
}
