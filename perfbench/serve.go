package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nadroid/internal/corpus"
	"nadroid/internal/server"
	"nadroid/internal/store"
)

// The serve-updates workload: an in-process nadroid-serve backed by a
// temp-dir store, driven over loopback HTTP by nproc closed-loop
// clients. Each client owns a disjoint set of apps and sends either a
// repeat of an app's current version (must come back cached) or a new
// version with one more no-op edit (must not be cached, and must keep
// the spec's answer). Validation is off.

// hitShare is the exact share of repeat requests in every client's
// plan. 80/20 is an assumption, not a measured traffic mix: nothing in
// the paper or the repository records how often a store-backed CI
// service sees a repeat rather than a new version. It was chosen so
// that op_ms.p50 falls inside the hits (near their 62nd percentile) and
// op_ms.p90 inside the updates (near their median). It stays open until
// someone who knows real traffic confirms or replaces it.
const hitShare = 0.8

// requestTimeout bounds one round trip; a request past it counts as
// failed.
const requestTimeout = 60 * time.Second

// serveEnv is one running service: store, server, listener, client.
type serveEnv struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startServe opens a fresh store under root and starts the service with
// the daemon's default configuration on a loopback port.
func startServe(root string, clients int) (*serveEnv, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{MaxRunsPerApp: 32, MaxAge: 30 * 24 * time.Hour})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(server.Config{DefaultTimeout: 2 * time.Minute, Store: st})
	e := &serveEnv{
		dir: dir,
		srv: srv,
		hs:  &http.Server{Handler: srv},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the HTTP server, drains the analysis pool, waits for the
// serving goroutine and removes the store directory.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // an unclean stop still ends the process's use of it
	<-e.served
	_ = e.srv.Shutdown(ctx)
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// reply is one round trip's outcome.
type reply struct {
	res *server.ResultWire
	rtt time.Duration
	err error // transport failure, timeout or non-200 status
}

// analyze posts one program and decodes the answer.
func (e *serveEnv) analyze(text string) reply {
	body, err := json.Marshal(server.AnalyzeRequest{Dexasm: text})
	if err != nil {
		return reply{err: err}
	}
	start := time.Now()
	resp, err := e.client.Post(e.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{rtt: time.Since(start), err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	if err != nil {
		return reply{rtt: rtt, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{rtt: rtt, err: fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))}
	}
	var res server.ResultWire
	if err := json.Unmarshal(data, &res); err != nil {
		return reply{rtt: rtt, err: err}
	}
	return reply{res: &res, rtt: rtt}
}

// scrape reads /metrics into a name → value map (labels stay part of
// the name).
func (e *serveEnv) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serveApp is one app's state on the client side.
type serveApp struct {
	*genApp
	current string // text of the version the service saw last
	edits   int
}

// serveSetup draws and renders the apps, starts a service and posts
// every app's base version on clients closed-loop callers. Base answers
// are checked like timed ones.
func serveSetup(seed int64, rounds, clients int, root string) (*serveEnv, []*serveApp, error) {
	gen := drawApps(seed, rounds, true)
	render(gen)
	env, err := startServe(root, clients)
	if err != nil {
		return nil, nil, err
	}
	apps := make([]*serveApp, len(gen))
	for i, a := range gen {
		apps[i] = &serveApp{genApp: a, current: a.Text}
	}
	var t tally
	closedLoop(len(apps), clients, func(i int) {
		t.record(apps[i].judge(env.analyze(apps[i].current), false))
	})
	if msg := t.firstProblem(); msg != "" {
		env.close()
		return nil, nil, fmt.Errorf("posting base versions: %s", msg)
	}
	return env, apps, nil
}

// judged is one request checked against the spec.
type judged struct {
	update     bool
	rtt        time.Duration
	pipelineMS float64 // the response's server-side pipeline time
	failed     error
	wrong      string
}

// judge checks a reply: an update must miss the cache, a repeat must
// hit it, and either must carry the spec's answer.
func (a *serveApp) judge(r reply, repeat bool) judged {
	j := judged{update: !repeat, rtt: r.rtt, failed: r.err}
	if r.err != nil {
		return j
	}
	j.pipelineMS = r.res.Timing.TotalMS
	if r.res.Cached != repeat {
		j.wrong = fmt.Sprintf("%s (edit %d): cached=%t for a %s", a.Name, a.edits, r.res.Cached,
			map[bool]string{true: "repeat", false: "new version"}[repeat])
		return j
	}
	got := answer{survived: r.res.Stats.AfterUnsound}
	for _, w := range r.res.Warnings {
		got.count(w.Detector)
	}
	if msg := a.check(got, false); msg != "" {
		j.wrong = fmt.Sprintf("%s (edit %d)", msg, a.edits)
	}
	return j
}

// tally counts outcomes across goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []error
	wrong     []string
}

func (t *tally) record(j judged) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if j.failed != nil {
		t.failed++
		t.errs = append(t.errs, j.failed)
	}
	if j.wrong != "" {
		t.wrong = append(t.wrong, j.wrong)
	}
}

func (t *tally) firstProblem() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) > 0 {
		return t.errs[0].Error()
	}
	if len(t.wrong) > 0 {
		return t.wrong[0]
	}
	return ""
}

// serveStep is one planned request of one client.
type serveStep struct {
	app    *serveApp
	repeat bool
}

// servePlan splits the apps among clients (client c owns every app
// whose index is c mod clients) and gives each client opsPerClient
// requests: exactly hitShare of them repeats, in seeded order, cycling
// through the client's apps in a seeded order. Disjoint ownership makes
// every cache disposition a function of the seed: the service has no
// in-flight dedup, so two clients racing on one new version would both
// miss.
func servePlan(seed int64, apps []*serveApp, clients, opsPerClient int) ([][]serveStep, []*rand.Rand) {
	plans := make([][]serveStep, clients)
	rngs := make([]*rand.Rand, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		var own []*serveApp
		for i := c; i < len(apps); i += clients {
			own = append(own, apps[i])
		}
		rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
		repeats := int(float64(opsPerClient)*hitShare + 0.5)
		kinds := make([]bool, opsPerClient)
		for k := 0; k < repeats; k++ {
			kinds[k] = true
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for k := 0; k < opsPerClient; k++ {
			plans[c] = append(plans[c], serveStep{app: own[k%len(own)], repeat: kinds[k]})
		}
		rngs[c] = rng
	}
	return plans, rngs
}

// servePass is the outcome of one timed pass.
type servePass struct {
	wall    time.Duration
	results []judged
}

// runServePass plays every client's plan against env. A client makes a
// new version's text (one more seeded no-op edit) before starting its
// timer, so only the round trip is timed.
func runServePass(env *serveEnv, plans [][]serveStep, rngs []*rand.Rand, t *tally, ot func(op int, j judged, start, end time.Time)) *servePass {
	p := &servePass{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []judged
			for k, step := range plans[c] {
				a := step.app
				text := a.current
				if !step.repeat {
					text = noopEdit(a.current, rngs[c])
					a.current = text
					a.edits++
				}
				began := time.Now()
				j := a.judge(env.analyze(text), step.repeat)
				if ot != nil {
					ot(c*len(plans[c])+k, j, began, began.Add(j.rtt))
				}
				t.record(j)
				mine = append(mine, j)
			}
			mu.Lock()
			p.results = append(p.results, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// latencies returns round-trip times in ms of the requests of one class
// (repeat or update), or of all requests when all is set.
func (p *servePass) latencies(update, all bool) []float64 {
	var out []float64
	for _, j := range p.results {
		if j.failed == nil && (all || j.update == update) {
			out = append(out, ms(j.rtt))
		}
	}
	return out
}

// serveRounds is how many 27-app rounds the service holds; with two
// rounds each Table-1 spec appears twice, once at each half of the
// scale range.
const serveRounds = 2

// serveSetupReps is how often a serve run repeats its set-up (drawing,
// rendering, starting the service, posting base versions) to report the
// median set-up time.
const serveSetupReps = 5

// serveState is one finished set-up.
type serveState struct {
	env  *serveEnv
	apps []*serveApp
}

// runServe runs serve-updates.
func runServe(cfg config) (*outcome, error) {
	// Every client owns at least one app.
	clients := min(cfg.callers, serveRounds*len(corpus.Apps()))
	opsPerClient := max(1, int(float64(cfg.seconds)*cfg.wl.perSecond/float64(clients)+0.5))
	root := filepath.Join(cfg.out, "tmp")
	setup := func() (serveState, error) {
		env, apps, err := serveSetup(cfg.seed, serveRounds, clients, root)
		return serveState{env, apps}, err
	}
	s, setupS, err := timeSetup(serveSetupReps, setup, func(s serveState) { s.env.close() })
	if err != nil {
		return nil, err
	}
	t := &tally{}
	plans, rngs := servePlan(cfg.seed, s.apps, clients, opsPerClient)
	out := &outcome{callers: clients, metrics: metrics{}}
	if !cfg.trace {
		rss := startRSSMonitor()
		p := runServePass(s.env, plans, rngs, t, nil)
		peak := rss.finish()
		s.env.close()
		out.fromTally(t)
		out.metrics.set("setup_s", setupS, "s")
		out.metrics.set("ops_per_s", float64(len(p.results))/p.wall.Seconds(), "1/s")
		all := p.latencies(false, true)
		out.metrics.set("op_ms.p50", quantile(all, 0.5), "ms")
		out.metrics.set("op_ms.p90", quantile(all, 0.9), "ms")
		out.metrics.set("peak_rss_mb", peak, "MB")
		return out, nil
	}

	// Traced run: a reference pass on this service, then the same
	// requests against a fresh service with /metrics read before and
	// after and every round trip recorded as a span.
	ref := runServePass(s.env, plans, rngs, t, nil)
	s.env.close()
	s, err = setup()
	if err != nil {
		return nil, err
	}
	defer s.env.close()
	plans, rngs = servePlan(cfg.seed, s.apps, clients, opsPerClient)
	before, err := s.env.scrape()
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	tr := newTracer()
	g0 := readGoStats()
	p := runServePass(s.env, plans, rngs, t, func(op int, j judged, start, end time.Time) {
		name := "serve.repeat"
		if j.update {
			name = "serve.update"
		}
		tr.record(op, name, start, end)
	})
	addGoDeltas(out.metrics, g0, readGoStats())
	after, err := s.env.scrape()
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	out.fromTally(t)

	m := out.metrics
	hits, updates := p.latencies(false, false), p.latencies(true, false)
	m.set("hit_ms.p50", quantile(hits, 0.5), "ms")
	m.set("hit_ms.p90", quantile(hits, 0.9), "ms")
	m.set("update_ms.p50", quantile(updates, 0.5), "ms")
	m.set("update_ms.p90", quantile(updates, 0.9), "ms")
	var pipeline, rtt float64
	for _, j := range p.results {
		rtt += ms(j.rtt)
		if j.update {
			pipeline += j.pipelineMS
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	queueWait := delta("nadroid_queue_wait_sum_ms")
	m.set("server.pipeline.ms", pipeline, "ms")
	m.set("server.overhead.ms", rtt-pipeline, "ms")
	m.set("server.queue_wait.ms", queueWait, "ms")
	setCounts(m, map[string]float64{
		"server.cache.hits":    delta("nadroid_cache_hits_total"),
		"server.cache.misses":  delta("nadroid_cache_misses_total"),
		"store.puts":           delta("nadroid_store_puts_total"),
		"store.bytes":          delta("nadroid_store_bytes"),
		"ircache.hits":         delta("nadroid_pipeline_ircache_hits"),
		"ircache.misses":       delta("nadroid_pipeline_ircache_misses"),
		"incr.methods_changed": delta("nadroid_pipeline_incr_methods_changed"),
		"incr.facts_retracted": delta("nadroid_pipeline_incr_facts_retracted"),
		"incr.partition_skips": delta("nadroid_pipeline_incr_partition_skips"),
	})
	m.set("trace.coverage", (pipeline+queueWait)/rtt, "ratio")
	m.set("trace.overhead", p.wall.Seconds()/ref.wall.Seconds(), "ratio")
	out.spans = tr.spans
	return out, nil
}

// fromTally copies a tally's counts into out.
func (out *outcome) fromTally(t *tally) {
	out.attempted, out.failed, out.wrong = t.attempted, t.failed, t.wrong
	for _, err := range t.errs {
		out.errs = append(out.errs, err.Error())
	}
}
