package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"

	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
)

// The input generator. Every workload draws its apps here from the
// workload seed; the program only ever sees the rendered dexasm text,
// while the scaled corpus.Spec stays with the benchmark as the ground
// truth each answer is checked against.

// minFactor and maxFactor bound the per-app scale applied to every
// integer count of a Table-1 spec.
const (
	minFactor = 0.5
	maxFactor = 1.5
)

// genApp is one generated application.
type genApp struct {
	Name   string
	Base   string // the Table-1 spec it was drawn from
	Round  int
	Factor float64
	Spec   corpus.Spec
	Text   string // dexasm rendering: the only thing the program receives
}

// answer is what the program said about one app, in the terms the
// spec predicts.
type answer struct {
	survived int // Stats.AfterUnsound
	harmful  int // validated-harmful warnings
	leaked   int // leaked-thread warnings
	lost     int // lost-result warnings
}

// want is the spec's ground truth. The leaked-thread and lost-result
// families are counted as in the root package's async-detector test.
func (a *genApp) want() answer {
	return answer{
		survived: a.Spec.TrueTotal() + a.Spec.FPTotal(),
		harmful:  a.Spec.TrueTotal(),
		leaked:   a.Spec.LeakedThread,
		lost:     a.Spec.LostResult,
	}
}

// check compares an answer with the spec; "" means it agrees. The
// harmful count is checked only when validate is set.
func (a *genApp) check(got answer, validate bool) string {
	want := a.want()
	if !validate {
		got.harmful, want.harmful = 0, 0
	}
	if got != want {
		return fmt.Sprintf("%s: answered %+v, spec says %+v", a.Name, got, want)
	}
	return ""
}

// count adds one warning of the named detector family; other families
// have no ground truth in the spec.
func (ans *answer) count(detector string) {
	switch detector {
	case "leaked-thread":
		ans.leaked++
	case "lost-result":
		ans.lost++
	}
}

// withAsyncSeeds adds seeds of the leaked-thread and lost-result
// detector families, benign variants included. No Table-1 spec has
// any, so without them the oracle could only check that those
// detectors stay silent, not that they still find what is planted. The
// UAF detectors and filters do not see these seeds, so the surviving
// warnings are unchanged. The schedule explorer does see the extra
// threads: at its default bound of 4000 schedules it then misses one
// true harmful warning of some FireFox draws (40000 finds it), so only
// workloads that run without validation add them.
func withAsyncSeeds(s corpus.Spec) corpus.Spec {
	s.LeakedThread, s.LeakedThreadJoin = 2, 1
	s.LostResult, s.LostResultCancel = 2, 1
	return s
}

// scaleSpec multiplies every integer count of s by f, rounding to the
// nearest whole number and keeping every seeded pattern at least once.
func scaleSpec(s corpus.Spec, f float64) corpus.Spec {
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		fv := v.Field(i)
		if fv.Kind() != reflect.Int || fv.Int() == 0 {
			continue
		}
		n := int64(math.Round(float64(fv.Int()) * f))
		if n < 1 {
			n = 1
		}
		fv.SetInt(n)
	}
	return s
}

// drawApps draws rounds×27 apps from seed. Every round holds every
// Table-1 spec once, with the async-error seeds added when async is
// set. One spec's scale factors over the rounds are a
// systematic sample of [minFactor, maxFactor): one seeded offset,
// spaced one round-width apart, assigned to rounds in seeded order.
// Each draw is still uniform over specs and factors, but two seeds give
// nearly the same total work.
func drawApps(seed int64, rounds int, async bool) []*genApp {
	rng := rand.New(rand.NewSource(seed))
	width := (maxFactor - minFactor) / float64(rounds)
	byRound := make([][]*genApp, rounds)
	for _, sp := range corpus.Apps() {
		spec := sp.Spec
		if async {
			spec = withAsyncSeeds(spec)
		}
		offset := rng.Float64()
		for r, slot := range rng.Perm(rounds) {
			f := minFactor + (float64(slot)+offset)*width
			byRound[r] = append(byRound[r], &genApp{Base: spec.Name, Round: r, Factor: f, Spec: scaleSpec(spec, f)})
		}
	}
	var apps []*genApp
	for _, round := range byRound {
		apps = append(apps, round...)
	}
	for i, a := range apps {
		a.Name = fmt.Sprintf("%s_%03d", a.Base, i)
		a.Spec.Name = a.Name
	}
	return apps
}

// render fills in each app's dexasm text and orders the apps round by
// round, largest text first within a round. Every round then spans the
// whole size range, so the apps behind any latency percentile are
// spread over the run instead of bunched in one stretch of it, where a
// passing slowdown of the machine would move them all; and the run
// ends on the smallest apps, so it does not end with one caller alone
// on a large app.
func render(apps []*genApp) {
	for _, a := range apps {
		a.Text = dexasm.Format(a.Spec.Build())
	}
	sort.SliceStable(apps, func(i, j int) bool {
		if apps[i].Round != apps[j].Round {
			return apps[i].Round < apps[j].Round
		}
		return len(apps[i].Text) > len(apps[j].Text)
	})
}

// bodyLines returns the indexes of the lines of text that sit inside a
// method body, i.e. the positions where an instruction may be inserted.
func bodyLines(lines []string) []int {
	var out []int
	in := false
	for i, l := range lines {
		t := strings.TrimSpace(l)
		switch {
		case !in && strings.Contains(t, "method ") && strings.HasSuffix(t, "{"):
			in = true
		case in && t == "}":
			out = append(out, i)
			in = false
		case in:
			out = append(out, i)
		}
	}
	return out
}

// noopEdit returns text with one `nop` inserted before a seeded line of
// a seeded method body. The program text (and so its IR digest)
// changes, while every analysis answer stays that of the spec.
func noopEdit(text string, rng *rand.Rand) string {
	lines := strings.Split(text, "\n")
	pos := bodyLines(lines)
	at := pos[rng.Intn(len(pos))]
	out := make([]string, 0, len(lines)+1)
	out = append(out, lines[:at]...)
	out = append(out, "    nop")
	return strings.Join(append(out, lines[at:]...), "\n")
}
