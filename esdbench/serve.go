package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/dist"
	"esd/internal/expr"
	"esd/internal/jobs"
	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/report"
	"esd/internal/service"
	"esd/internal/telemetry"
	"esd/internal/trace"
)

// serveClients is the number of closed-loop clients of serve-restart: each
// sends its next /synthesize request when the previous one is answered.
const serveClients = 2

// serveSetupReps is how many times serve-restart repeats its set-up (two
// server lives and several hundred variants, about a second each).
const serveSetupReps = 3

// serveRate sizes the request stream: enough rounds of one request per
// app for this many requests a second over the measured phase (about
// twice what two clients reach on a 2-core host). If the stream does run
// out, the phase ends early.
const serveRate = 160

// storeEvent is one timed jobs.Store.Put.
type storeEvent struct {
	id         string
	state      jobs.State
	start, end time.Time
}

// timingStore wraps the server's durable job store and times every Put,
// recording the job's state transitions: the benchmark's view of the jobs
// layer, taken from outside the program.
type timingStore struct {
	jobs.Store
	mu      sync.Mutex
	events  []storeEvent
	request map[string][]byte // job id → its request payload
}

func newTimingStore(inner jobs.Store) *timingStore {
	return &timingStore{Store: inner, request: map[string][]byte{}}
}

func (s *timingStore) Put(j *jobs.Job) error {
	start := time.Now()
	err := s.Store.Put(j)
	end := time.Now()
	s.mu.Lock()
	s.events = append(s.events, storeEvent{id: j.ID, state: j.State, start: start, end: end})
	if _, ok := s.request[j.ID]; !ok {
		s.request[j.ID] = append([]byte(nil), j.Request...)
	}
	s.mu.Unlock()
	return err
}

// take returns and clears the recorded events.
func (s *timingStore) take() ([]storeEvent, map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev, req := s.events, s.request
	s.events, s.request = nil, map[string][]byte{}
	return ev, req
}

// jobRun is one job's run on a server worker, from its running Put to its
// terminal Put.
type jobRun struct {
	key        string
	start, end time.Time
	puts       []storeEvent
}

// jobRuns groups store events by job.
func jobRuns(events []storeEvent, requests map[string][]byte) []*jobRun {
	byID := map[string]*jobRun{}
	var order []*jobRun
	for _, e := range events {
		j, ok := byID[e.id]
		if !ok {
			j = &jobRun{key: jobKey(requests[e.id])}
			byID[e.id] = j
			order = append(order, j)
		}
		j.puts = append(j.puts, e)
		switch {
		case e.state == jobs.StateRunning:
			j.start = e.end
		case e.state.Terminal():
			j.end = e.start
		}
	}
	return order
}

// jobKey identifies a request by the program it names (file and source),
// which is what links a server-side job to the client request that made it.
func jobKey(payload []byte) string {
	var req struct {
		Name   string `json:"name"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(payload, &req); err != nil {
		return ""
	}
	return requestKey(req.Name, req.Source)
}

func requestKey(name, source string) string {
	sum := sha256.Sum256([]byte(source))
	return fmt.Sprintf("%s/%x", name, sum[:8])
}

// server is one life of esdserve's handler on a loopback listener.
type server struct {
	eng    *esd.Engine
	store  *timingStore
	svc    *service.Server
	http   *http.Server
	url    string
	served chan error
	open   time.Duration
}

// startServer opens the durable job store and the persistent cache in
// dir and serves the handler on a loopback port.
func startServer(dir string) (*server, error) {
	fs, err := jobs.OpenFileStore(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	eng := esd.New(esd.WithPersistentCache(filepath.Join(dir, "cache")))
	open := time.Since(start)
	if err := eng.PersistentCacheError(); err != nil {
		fs.Close()
		return nil, err
	}
	store := newTimingStore(fs)
	svc := service.New(eng, service.Config{JobStore: store, MaxConcurrent: serveClients, JobWorkers: serveClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		eng.Close()
		fs.Close()
		return nil, err
	}
	s := &server{eng: eng, store: store, svc: svc, http: &http.Server{Handler: svc},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1), open: open}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down cleanly — HTTP, then the job scheduler, then
// the engine's persistent cache (which compacts it) and the job store —
// and returns how long Engine.Close took.
func (s *server) stop() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{s.http.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.svc.Close(ctx))
	start := time.Now()
	errs = append(errs, s.eng.Close())
	closeDur := time.Since(start)
	errs = append(errs, s.store.Store.Close())
	return closeDur, errors.Join(errs...)
}

// built is a program the clients send, with its coredump.
type built struct {
	v   *variant
	rep *report.Report
	// prog is kept for the seen programs only; a novel variant is compiled
	// again when its answer is checked, so the hundreds of variants of a run
	// do not sit in the heap the run measures.
	prog *mir.Program
	// body is the request; tracedBody the same request with the flight
	// recorder on (built for traced runs only).
	body, tracedBody []byte
	// fp is the execution the set-up's first synthesis of a seen program
	// produced: later syntheses of it must reproduce it exactly.
	fp string
}

func (b *built) requestBody(traced bool) ([]byte, error) {
	repJSON, err := b.rep.Encode()
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"name": b.v.File, "source": b.v.Source, "report": json.RawMessage(repJSON),
		"seed": searchSeed, "budget_ms": opBudget.Milliseconds(), "telemetry": traced,
	})
}

func (b *built) program() (*mir.Program, error) {
	if b.prog != nil {
		return b.prog, nil
	}
	return lang.Compile(b.v.File, b.v.Source)
}

// buildProgram compiles v and takes its coredump; keep retains the
// compiled program.
func buildProgram(v *variant, keep, traced bool) (*built, error) {
	prog, rep, err := v.build()
	if err != nil {
		return nil, err
	}
	b := &built{v: v, rep: rep}
	if keep {
		b.prog = prog
	}
	if b.body, err = b.requestBody(false); err != nil {
		return nil, err
	}
	if traced {
		b.tracedBody, err = b.requestBody(true)
	}
	return b, err
}

// response is the part of a /synthesize answer the benchmark checks.
type response struct {
	Found     bool            `json:"found"`
	Execution json.RawMessage `json:"execution"`
	Stats     struct {
		DurationMS int64 `json:"duration_ms"`
	} `json:"stats"`
	Telemetry *telemetry.Report `json:"telemetry"`
}

// sent is one request as its client saw it.
type sent struct {
	b          *built
	start, end time.Time
	status     int
	body       []byte
	err        error
}

var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

func post(url string, body []byte) (int, []byte, error) {
	resp, err := httpClient.Post(url+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveSetup is the state one set-up repetition leaves behind.
type serveSetup struct {
	srv    *server // the second life, serving the measured phase
	seen   map[string]*built
	stream []*built
}

// setupServe builds the programs, runs the server's first life over the
// seen set, shuts it down cleanly, and starts the second life on the same
// directories after dropping the distance-table cache. The process-wide
// interner is left warm, as it would be in a long-lived process.
func setupServe(dir string, names []string, reqs []request, traced bool) (*serveSetup, error) {
	st := &serveSetup{seen: map[string]*built{}}
	for _, name := range names {
		v, err := makeVariant(apps.Get(name), "")
		if err != nil {
			return nil, err
		}
		b, err := buildProgram(v, true, traced)
		if err != nil {
			return nil, err
		}
		st.seen[name] = b
	}
	for _, q := range reqs {
		if q.Tag == "" {
			st.stream = append(st.stream, st.seen[q.App])
			continue
		}
		v, err := makeVariant(apps.Get(q.App), q.Tag)
		if err != nil {
			return nil, err
		}
		b, err := buildProgram(v, false, traced)
		if err != nil {
			return nil, err
		}
		st.stream = append(st.stream, b)
	}

	first, err := startServer(dir)
	if err != nil {
		return nil, fmt.Errorf("first life: %w", err)
	}
	for _, name := range names {
		b := st.seen[name]
		status, body, err := post(first.url, b.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var resp response
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		if err == nil && !resp.Found {
			err = errors.New("not found")
		}
		if err == nil {
			b.fp, err = checkExecution(b.prog, b.rep, resp.Execution)
		}
		if err != nil {
			first.stop()
			return nil, fmt.Errorf("first life, %s: %w", name, err)
		}
	}
	if _, err := first.stop(); err != nil {
		return nil, fmt.Errorf("first life shutdown: %w", err)
	}
	dist.ResetSharedCache()
	st.srv, err = startServer(dir)
	if err != nil {
		return nil, fmt.Errorf("second life: %w", err)
	}
	st.srv.store.take()
	return st, nil
}

// runServeRestart: esdserve's handler on a loopback listener with a
// durable job store and a persistent cache directory, restarted once
// during set-up, under two closed-loop clients.
func runServeRestart(r *run) error {
	if err := load(serveClients, 1); err != nil {
		return err
	}
	names := serviceApps()
	fmt.Printf("novel_share=%d/%d\n", novelPerRound, len(names))
	rounds := int(math.Ceil(r.cfg.seconds * serveRate / float64(len(names))))
	reqs := requestStream(r.cfg.seed, names, rounds)
	base := filepath.Join(r.cfg.workDir, "serve", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(base)

	var st *serveSetup
	var opens []float64
	for i := 0; i < serveSetupReps; i++ {
		if st != nil {
			if _, err := st.srv.stop(); err != nil {
				return err
			}
		}
		dir := filepath.Join(base, fmt.Sprint(i))
		start := time.Now()
		var err error
		st, err = setupServe(dir, names, reqs, r.cfg.trace)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		opens = append(opens, ms(st.srv.open))
	}
	is := expr.InternerStats()
	fmt.Printf("second life interner terms=%d bytes=%d (warm from the first life)\n", is.Terms, is.Bytes)

	// Untraced half: the end-to-end numbers.
	heap := startHeapSampler(time.Second)
	cpu0 := cpuSeconds()
	start := time.Now()
	results := st.clients(r.budget(), 0, false)
	r.wall = time.Since(start).Seconds()
	r.cpuTotal = cpuSeconds() - cpu0
	r.peakHeap = heap.Stop()
	events, payloads := st.srv.store.take()
	for _, j := range jobRuns(events, payloads) {
		if !j.start.IsZero() && !j.end.IsZero() {
			r.synth = append(r.synth, j.end.Sub(j.start).Seconds())
		}
	}
	for _, s := range results {
		r.lat = append(r.lat, s.end.Sub(s.start).Seconds())
	}
	fmt.Printf("requests=%d novel=%d wall=%.3fs\n", len(results), countNovel(results), r.wall)

	var all []sent
	all = append(all, results...)
	if r.cfg.trace {
		traced, err := r.traceServe(st, len(results))
		if err != nil {
			return err
		}
		all = append(all, traced...)
	}
	closeDur, err := st.srv.stop()
	if err != nil {
		return fmt.Errorf("second life shutdown: %w", err)
	}
	if r.cfg.trace {
		r.layer["pcache.open_ms"] = median(opens)
		r.layer["pcache.close_ms"] = ms(closeDur)
	}
	for i, s := range all {
		r.attempted++
		if err := s.check(); err != nil {
			r.fail("request %d (%s): %v", i, s.b.v.File, err)
		}
	}
	return nil
}

func countNovel(ss []sent) int {
	n := 0
	for _, s := range ss {
		if s.b.v.File != s.b.v.App+".c" {
			n++
		}
	}
	return n
}

// clients runs the closed-loop clients over the stream from position
// from until budget is spent or the stream ends, and returns every
// answered request in stream order.
func (st *serveSetup) clients(budget time.Duration, from int, traced bool) []sent {
	out := make([]sent, len(st.stream))
	var next atomic.Int64
	next.Store(int64(from))
	var last atomic.Int64
	last.Store(int64(from))
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(st.stream) {
					return
				}
				b := st.stream[i]
				body := b.body
				if traced {
					body = b.tracedBody
				}
				s := sent{b: b, start: time.Now()}
				s.status, s.body, s.err = post(st.srv.url, body)
				s.end = time.Now()
				out[i] = s
				for {
					l := last.Load()
					if int64(i+1) <= l || last.CompareAndSwap(l, int64(i+1)) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return out[from:last.Load()]
}

// check is the correctness gate for one request: answered 200 with a found
// execution that strict-replays to the reported failure, and — for a
// program seen in set-up — the very execution set-up synthesized (a warm
// persistent cache must not change the result).
func (s *sent) check() error {
	if s.err != nil {
		return s.err
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	var resp response
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !resp.Found {
		return errors.New("not found")
	}
	prog, err := s.b.program()
	if err != nil {
		return err
	}
	fp, err := checkExecution(prog, s.b.rep, resp.Execution)
	if err != nil {
		return err
	}
	if s.b.fp != "" && fp != s.b.fp {
		return fmt.Errorf("execution %s differs from set-up's %s", fp, s.b.fp)
	}
	return nil
}

// traceServe runs the traced half: the same clients with the flight
// recorder on in every request, spans for client requests, job runs and
// store puts, and the static layers timed once per app.
func (r *run) traceServe(st *serveSetup, from int) ([]sent, error) {
	var l layers
	tr := newTracer()
	l.promBefore = promSnapshot()
	is0 := expr.InternerStats()
	g0 := readGo()
	start := time.Now()
	results := st.clients(r.budget(), from, true)
	wall := time.Since(start)
	g1 := readGo()
	is1 := expr.InternerStats()
	events, payloads := st.srv.store.take()
	runs := jobRuns(events, payloads)

	byKey := map[string][]int{} // request key → client spans
	reports := map[int]*telemetry.Report{}
	var overhead []float64
	for i, s := range results {
		if s.err != nil {
			continue
		}
		r.tracedLat = append(r.tracedLat, s.end.Sub(s.start).Seconds())
		id := tr.record("client.request", 0, i+1, s.start, s.end)
		key := requestKey(s.b.v.File, s.b.v.Source)
		byKey[key] = append(byKey[key], id)
		var resp response
		if err := json.Unmarshal(s.body, &resp); err != nil || resp.Telemetry == nil {
			continue
		}
		l.addReport(resp.Telemetry)
		reports[id] = resp.Telemetry
		overhead = append(overhead, ms(s.end.Sub(s.start))-float64(resp.Stats.DurationMS))
	}
	spans := tr.snapshot()
	var puts, putMS float64
	for _, j := range runs {
		parent := 0
		for _, id := range byKey[j.key] {
			c := spans[id-1]
			if c.Start <= j.start.Sub(tr.epoch).Nanoseconds() && j.end.Sub(tr.epoch).Nanoseconds() <= c.End {
				parent = id
				break
			}
		}
		req := 0
		if parent != 0 {
			req = spans[parent-1].Req
		}
		if !j.start.IsZero() && !j.end.IsZero() {
			id := tr.record("jobs.run", parent, req, j.start, j.end)
			tr.derive(id, derivedParts(reports[parent]))
		}
		for _, p := range j.puts {
			tr.record("jobs.Store.Put", parent, req, p.start, p.end)
			puts++
			putMS += ms(p.end.Sub(p.start))
		}
	}
	n := float64(max(len(results), 1))
	l.allocBytes = g1.allocBytes - g0.allocBytes
	l.gcCPU = g1.gcCPU - g0.gcCPU
	l.cpu = g1.totalCPU - g0.totalCPU

	// The static layers, timed from outside once per app on the programs
	// the requests named, and the distance lookups over their executions.
	seenApp := map[string]bool{}
	for i, s := range results {
		if s.err != nil || seenApp[s.b.v.App] {
			continue
		}
		seenApp[s.b.v.App] = true
		var resp response
		if err := json.Unmarshal(s.body, &resp); err != nil || !resp.Found {
			continue
		}
		ex, err := trace.Decode(resp.Execution)
		if err != nil {
			continue
		}
		prog, err := s.b.program()
		if err != nil {
			return nil, err
		}
		t := &target{file: s.b.v.File, source: s.b.v.Source,
			prog: &esd.Program{MIR: prog}, rep: &esd.BugReport{R: s.b.rep}}
		root := tr.begin("analysis", 0, i+1)
		calc, err := l.analyzeOutside(tr, root, i+1, t)
		if err != nil {
			return nil, err
		}
		if err := l.timeLookups(tr, root, i+1, t, calc, &esd.Execution{E: ex}); err != nil {
			return nil, err
		}
		tr.end(root)
	}

	spans = tr.snapshot()
	l.publish(r, spans)
	// A request's synthesis is its job run: what no counter explains is
	// the job runs' self time.
	r.layer["synth.unattributed_s"] = selfTimes(spans)["jobs.run"].Seconds() / n
	r.layer["service.overhead_ms"] = median(overhead)
	r.layer["jobs.store_puts"] = puts / n
	if puts > 0 {
		r.layer["jobs.store_put_ms"] = putMS / puts
	}
	if nov := countNovel(results); nov > 0 {
		r.layer["expr.interner_kb_per_novel_program"] = float64(is1.Bytes-is0.Bytes) / 1024 / float64(nov)
	}
	fmt.Printf("traced requests=%d wall=%.3fs\n", len(results), wall.Seconds())
	if err := r.writeSpans(spans); err != nil {
		return nil, err
	}
	return results, nil
}
