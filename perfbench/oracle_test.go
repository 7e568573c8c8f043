package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"nadroid"
	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
	"nadroid/internal/store"
)

// TestTable1AtScaleOne checks the generator and the oracle against the
// paper's Table 1: at scale factor 1 the 27 generated apps (renamed and
// rendered exactly as the workloads do it) must reproduce the totals
// 1326 potential / 366 after sound / 153 after unsound filtering, and
// 88 validated-harmful warnings, with every app meeting its own oracle
// (no Table-1 spec plants a leaked thread or a lost result, so those
// detectors must stay silent).
func TestTable1AtScaleOne(t *testing.T) {
	var apps []*genApp
	for i, sp := range corpus.Apps() {
		s := scaleSpec(sp.Spec, 1)
		if !reflect.DeepEqual(s, sp.Spec) {
			t.Fatalf("%s: scaling by 1 changed the spec", sp.Spec.Name)
		}
		a := &genApp{Base: s.Name, Factor: 1, Spec: s}
		a.Name = fmt.Sprintf("%s_%03d", s.Name, i)
		a.Spec.Name = a.Name
		apps = append(apps, a)
	}
	render(apps)
	var potential, sound, unsound, harmful int
	for _, a := range apps {
		res, err := nadroid.AnalyzeSource(context.Background(), a.Text, sweepOptions(true))
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		v := newVerdict(res.Model, res.Stats, res.Detection, res.Detect.Warnings, res.Harmful)
		if msg := a.check(v.answer, true); msg != "" {
			t.Error(msg)
		}
		potential += res.Stats.Potential
		sound += res.Stats.AfterSound
		unsound += res.Stats.AfterUnsound
		harmful += len(res.Harmful)
	}
	if potential != 1326 || sound != 366 || unsound != 153 || harmful != 88 {
		t.Errorf("totals %d/%d/%d, %d harmful; Table 1 says 1326/366/153, 88 harmful",
			potential, sound, unsound, harmful)
	}
}

// TestNoopEditChangesDigestKeepsAnswer checks the serve-updates edit: a
// new version must get a new IR digest (so the service cannot answer it
// from cache) while the analysis answer stays the spec's.
func TestNoopEditChangesDigestKeepsAnswer(t *testing.T) {
	apps := drawApps(11, 1, true)[:6]
	render(apps)
	rng := rand.New(rand.NewSource(5))
	for _, a := range apps {
		edited := a.Text
		for k := 0; k < 3; k++ {
			prev := canonicalDigest(t, edited)
			edited = noopEdit(edited, rng)
			if canonicalDigest(t, edited) == prev {
				t.Fatalf("%s: edit %d left the IR digest unchanged", a.Name, k+1)
			}
		}
		res, err := nadroid.AnalyzeSource(context.Background(), edited, sweepOptions(false))
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		v := newVerdict(res.Model, res.Stats, res.Detection, res.Detect.Warnings, res.Harmful)
		if msg := a.check(v.answer, false); msg != "" {
			t.Errorf("after edits: %s", msg)
		}
	}
}

// canonicalDigest is the digest the service keys a program by.
func canonicalDigest(t *testing.T, text string) string {
	t.Helper()
	pkg, err := dexasm.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return store.IRDigest(dexasm.Format(pkg))
}

// TestDrawnAppsMeetOracle checks that scaled apps carrying the
// async-error seeds meet the oracle as cold-sweep and serve-updates
// check it, leaked-thread and lost-result counts included, and that
// those counts are not zero, so the check can fail.
func TestDrawnAppsMeetOracle(t *testing.T) {
	apps := drawApps(7, 1, true)
	render(apps)
	for _, a := range apps {
		if w := a.want(); w.leaked == 0 || w.lost == 0 {
			t.Fatalf("%s: spec plants %d leaked threads and %d lost results", a.Name, w.leaked, w.lost)
		}
		res, err := nadroid.AnalyzeSource(context.Background(), a.Text, sweepOptions(false))
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		v := newVerdict(res.Model, res.Stats, res.Detection, res.Detect.Warnings, res.Harmful)
		if msg := a.check(v.answer, false); msg != "" {
			t.Error(msg)
		}
	}
}

// TestDrawAppsIsSeeded checks that the inputs are a function of the
// seed alone and that each round holds every Table-1 spec once.
func TestDrawAppsIsSeeded(t *testing.T) {
	a, b, c := drawApps(3, 4, true), drawApps(3, 4, true), drawApps(4, 4, true)
	if len(a) != 4*len(corpus.Apps()) {
		t.Fatalf("drew %d apps, want %d", len(a), 4*len(corpus.Apps()))
	}
	perSpec := make(map[string]int)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Factor != b[i].Factor {
			t.Fatalf("seed 3 drew differently twice at %d", i)
		}
		if a[i].Factor < minFactor || a[i].Factor >= maxFactor {
			t.Errorf("%s: factor %.3f outside [%.1f, %.1f)", a[i].Name, a[i].Factor, minFactor, maxFactor)
		}
		perSpec[a[i].Base]++
	}
	for name, n := range perSpec {
		if n != 4 {
			t.Errorf("%s drawn %d times in 4 rounds", name, n)
		}
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 3 and 4 drew the same apps")
	}
}

// TestBenchmarkJSONMatchesWorkloads checks that BENCHMARK.json names
// the workloads and end-to-end metrics the benchmark runs and reports,
// and that its per-layer table loads.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	want := []string{"setup_s", "ops_per_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb"}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end = %v, want %v", e2e, want)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if _, err := loadLayerTable("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
}
