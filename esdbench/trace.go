package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Derived marks a span built from a counter the program returns (a
	// duration with a nominal position inside its parent) rather than
	// timed around a call.
	Derived bool `json:"derived,omitempty"`
}

// openEnd marks a span that has not ended.
const openEnd = math.MinInt64

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced runs measure end-to-end metrics.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: openEnd})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// record adds a span whose start and end were measured elsewhere.
func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// derive lays counter-reported durations end to end inside parent, as
// child spans. Their positions are nominal; their lengths are what the
// program reported, so the parent's self time is the part of its
// duration no counter accounts for.
func (t *tracer) derive(parent int, parts []namedDur) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at := p.Start
	for _, part := range parts {
		if part.ns <= 0 {
			continue
		}
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: p.Req, Name: part.name,
			Start: at, End: at + part.ns, Derived: true})
		at += part.ns
	}
}

type namedDur struct {
	name string
	ns   int64
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span name, the summed self time of its
// spans: each span's duration minus the part of its interval covered by
// its children. Spans still open are ignored.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End != openEnd {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End == openEnd {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return total + cur.b - cur.a
}

// writeSpans writes the spans as JSON to path (creating its directory).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
