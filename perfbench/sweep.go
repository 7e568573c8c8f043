package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nadroid"
	"nadroid/internal/apk"
	"nadroid/internal/detect"
	"nadroid/internal/dexasm"
	"nadroid/internal/escape"
	"nadroid/internal/explore"
	"nadroid/internal/filters"
	"nadroid/internal/fingerprint"
	"nadroid/internal/obs"
	"nadroid/internal/race"
	"nadroid/internal/report"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// The two sweep workloads: a closed loop of nproc callers, each taking
// the next generated app and running it through the whole pipeline
// with no store and Workers 1. validate-sweep adds the schedule
// explorer with its default bounds.

// sweepOptions are the analysis options of every sweep call.
func sweepOptions(validate bool) nadroid.Options {
	return nadroid.Options{Workers: 1, Validate: validate}
}

// verdict is what one pipeline run answered for one app, in a form two
// runs can be compared by.
type verdict struct {
	stats    string   // filter stats, removal counts included
	warnings []string // fingerprints of surviving UAF and generic warnings
	harmful  []string // fingerprints of validated-harmful warnings
	answer
}

func (v verdict) String() string {
	return fmt.Sprintf("%s warnings=%s harmful=%s", v.stats,
		strings.Join(v.warnings, ","), strings.Join(v.harmful, ","))
}

func newVerdict(model *threadify.Model, st *filters.Stats, det *uaf.Detection, generic []detect.Warning, harmful []*uaf.Warning) verdict {
	names := make([]string, 0, len(st.Removed))
	for k := range st.Removed {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "potential=%d sound=%d unsound=%d", st.Potential, st.AfterSound, st.AfterUnsound)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%d", k, st.Removed[k])
	}
	v := verdict{stats: b.String(), answer: answer{survived: st.AfterUnsound, harmful: len(harmful)}}
	if det != nil {
		for _, w := range det.Alive() {
			v.warnings = append(v.warnings, string(fingerprint.Warning(model, w)))
		}
	}
	for _, w := range generic {
		v.warnings = append(v.warnings, string(w.Fingerprint))
		v.count(w.Detector)
	}
	for _, w := range harmful {
		v.harmful = append(v.harmful, string(fingerprint.Warning(model, w)))
	}
	sort.Strings(v.warnings)
	sort.Strings(v.harmful)
	return v
}

// closedLoop runs op(i) for every i in [0,n) on callers goroutines, each
// taking the next index as soon as its previous call returns. It
// returns the wall time from the first call to the last return.
func closedLoop(n, callers int, op func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sweepPass is the outcome of one closed-loop pass over the apps.
type sweepPass struct {
	wall     time.Duration
	lat      []float64 // per-app ms, indexed like the apps
	verdicts []verdict
	errs     []error
}

// untracedSweep runs nadroid.AnalyzeSource on every app.
func untracedSweep(apps []*genApp, callers int, validate bool) *sweepPass {
	p := &sweepPass{lat: make([]float64, len(apps)), verdicts: make([]verdict, len(apps)), errs: make([]error, len(apps))}
	opts := sweepOptions(validate)
	p.wall = closedLoop(len(apps), callers, func(i int) {
		start := time.Now()
		res, err := nadroid.AnalyzeSource(context.Background(), apps[i].Text, opts)
		p.lat[i] = ms(time.Since(start))
		if err != nil {
			p.errs[i] = err
			return
		}
		p.verdicts[i] = newVerdict(res.Model, res.Stats, res.Detection, res.Detect.Warnings, res.Harmful)
	})
	return p
}

// layerCounts accumulates the per-layer work counts of a traced pass.
type layerCounts struct {
	mu sync.Mutex
	n  map[string]float64
}

func (c *layerCounts) add(vals map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range vals {
		c.n[k] += v
	}
}

// tracedApp runs one app through the pipeline step by step, calling
// each layer's public function once under its own span, in the order
// and with the options nadroid.AnalyzeSource uses for a storeless
// Workers-1 run. Work counts are read off the layers' results after the
// operation's root span closes, so reading them costs no traced time.
func tracedApp(ot *opTrace, a *genApp, validate bool, counts *layerCounts) (verdict, error) {
	ctx := context.Background()
	var (
		err     error
		pkg     *apk.Package
		model   *threadify.Model
		acc     []race.Access
		esc     *escape.Result
		dc      *detect.Context
		generic []detect.Warning
		st      *filters.Stats
		harmful []*uaf.Warning
	)
	fail := func(step string, err error) (verdict, error) {
		ot.finish()
		return verdict{}, fmt.Errorf("%s: %s: %w", a.Name, step, err)
	}

	ot.layer("dexasm.parse", func() { pkg, err = dexasm.Parse(a.Text) })
	if err != nil {
		return fail("parse", err)
	}
	ot.layer("threadify.build", func() { model, err = threadify.BuildContext(ctx, pkg, threadify.Options{}) })
	if err != nil {
		return fail("threadify", err)
	}
	ot.layer("race.collect-accesses", func() { acc = race.CollectAccesses(model) })
	ot.layer("escape.analyze", func() { esc = escape.AnalyzeWith(model, escape.Options{Workers: 1}) })
	ot.layer("detect.context", func() {
		dc = detect.BuildContext(ctx, pkg.Name, model, detect.Options{Workers: 1, Escape: esc, Accesses: acc})
	})
	detectors := detect.All()
	for _, d := range detectors {
		var res *detect.Results
		ot.layer("detect:"+d.Name(), func() { res, err = detect.Run(ctx, dc, []detect.Detector{d}) })
		if err != nil {
			return fail("detect", err)
		}
		generic = append(generic, res.Warnings...)
	}
	ot.layer("filters", func() {
		st = filters.RunWith(ctx, dc.UAF, filters.RunConfig{Workers: 1, MHB: dc.MHB})
	})
	ot.layer("report", func() { _ = report.New(pkg.Name, dc.UAF) })
	explored := obs.NewMetrics()
	if validate {
		var conf *explore.Conflicts
		ot.layer("explore.conflicts", func() { conf = explore.NewConflicts(model, dc.Accesses) })
		ot.layer("explore.validate", func() {
			ectx := obs.WithMetrics(ctx, explored)
			harmful, err = explore.ValidateAllContext(ectx, pkg, model, dc.UAF.Alive(), explore.Options{Workers: 1, Conflicts: conf})
		})
		if err != nil {
			return fail("validate", err)
		}
	}
	ot.finish()

	objs, _, escaped := esc.Snapshot()
	nEscaped := 0
	for _, e := range escaped {
		if e {
			nEscaped++
		}
	}
	pts := model.PTS.Stats()
	warnings := len(generic) + len(dc.UAF.Warnings)
	eng := dc.Engine.Stats()
	counts.add(map[string]float64{
		"dexasm.bytes":               float64(len(a.Text)),
		"threadify.threads":          float64(len(model.Threads)),
		"pointsto.iterations":        float64(pts.Iterations),
		"pointsto.objects":           float64(pts.Objects),
		"pointsto.var_facts":         float64(pts.VarFacts),
		"race.accesses":              float64(len(acc)),
		"escape.objects":             float64(len(objs)),
		"escape.escaped":             float64(nEscaped),
		"detect.warnings":            float64(warnings),
		"datalog.derived":            float64(eng.Derived),
		"datalog.rounds":             float64(eng.Iterations),
		"filters.potential":          float64(st.Potential),
		"filters.after_sound":        float64(st.AfterSound),
		"filters.after_unsound":      float64(st.AfterUnsound),
		"explore.schedules_executed": float64(explored.Get("validation_schedules_executed")),
		"explore.schedules_pruned":   float64(explored.Get("validation_schedules_pruned")),
		"explore.harmful":            float64(len(harmful)),
	})
	return newVerdict(model, st, dc.UAF, generic, harmful), nil
}

// A sweep run repeats its set-up (drawing and rendering the apps) at
// least sweepSetupReps times, and until it has rendered at least
// sweepSetupRounds rounds, and reports the median set-up time. The
// second bound keeps the timed set-up work the same on every sweep, so
// a sweep with few rounds still times set-up over several seconds.
const (
	sweepSetupReps   = 5
	sweepSetupRounds = 120
)

// judgeSweep counts a pass's failures and wrong answers into out.
func (out *outcome) judgeSweep(apps []*genApp, p *sweepPass, validate bool) {
	for i, a := range apps {
		if p.errs[i] != nil {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("%s: %v", a.Name, p.errs[i]))
			continue
		}
		if msg := a.check(p.verdicts[i].answer, validate); msg != "" {
			out.wrong = append(out.wrong, msg)
		}
	}
}

// runSweep runs cold-sweep (validate false) or validate-sweep.
func runSweep(cfg config, validate bool) (*outcome, error) {
	rounds := cfg.sweepRounds()
	reps := max(sweepSetupReps, (sweepSetupRounds+rounds-1)/rounds)
	apps, setupS, err := timeSetup(reps, func() ([]*genApp, error) {
		apps := drawApps(cfg.seed, rounds, !validate)
		render(apps)
		return apps, nil
	}, func([]*genApp) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(apps), callers: cfg.callers, metrics: metrics{}}
	if !cfg.trace {
		rss := startRSSMonitor()
		p := untracedSweep(apps, cfg.callers, validate)
		peak := rss.finish()
		out.judgeSweep(apps, p, validate)
		out.metrics.set("setup_s", setupS, "s")
		out.metrics.set("ops_per_s", float64(len(apps))/p.wall.Seconds(), "1/s")
		out.metrics.set("op_ms.p50", quantile(p.lat, 0.5), "ms")
		out.metrics.set("op_ms.p90", quantile(p.lat, 0.9), "ms")
		out.metrics.set("peak_rss_mb", peak, "MB")
		return out, nil
	}

	// Traced run: an untraced AnalyzeSource pass is the reference for
	// both the answers and the tracing overhead; the traced pass then
	// runs the same apps step by step.
	g0 := readGoStats()
	ref := untracedSweep(apps, cfg.callers, validate)
	addGoDeltas(out.metrics, g0, readGoStats())
	out.judgeSweep(apps, ref, validate)

	tr := newTracer()
	counts := &layerCounts{n: make(map[string]float64)}
	verdicts := make([]verdict, len(apps))
	errs := make([]error, len(apps))
	wall := closedLoop(len(apps), cfg.callers, func(i int) {
		verdicts[i], errs[i] = tracedApp(tr.begin(i, "analyze"), apps[i], validate, counts)
	})
	for i, a := range apps {
		switch {
		case errs[i] != nil:
			out.problems = append(out.problems, fmt.Sprintf("traced pipeline: %v", errs[i]))
		case ref.errs[i] == nil && verdicts[i].String() != ref.verdicts[i].String():
			out.problems = append(out.problems, fmt.Sprintf("%s: step-by-step pipeline gave %q, AnalyzeSource gave %q",
				a.Name, verdicts[i], ref.verdicts[i]))
		}
	}

	self, opWall, layerSelf := tr.selfTimes()
	for name, d := range self {
		out.metrics.set(metricName(name)+".ms", ms(d), "ms")
	}
	setCounts(out.metrics, counts.n)
	coverage := layerSelf.Seconds() / opWall.Seconds()
	out.metrics.set("trace.coverage", coverage, "ratio")
	out.metrics.set("trace.overhead", wall.Seconds()/ref.wall.Seconds(), "ratio")
	if coverage < minCoverage {
		out.problems = append(out.problems, fmt.Sprintf("trace coverage %.3f is below %.2f", coverage, minCoverage))
	}
	out.spans = tr.spans
	return out, nil
}

// minCoverage is the share of each traced operation's wall time the
// layer spans must account for on the sweeps.
const minCoverage = 0.95

// setCounts stores summed work counts. main gives every per-layer
// metric its unit from BENCHMARK.json.
func setCounts(m metrics, counts map[string]float64) {
	for name, v := range counts {
		m.set(name, v, "count")
	}
}
