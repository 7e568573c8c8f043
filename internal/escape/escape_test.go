package escape

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"nadroid/internal/apk"
	"nadroid/internal/appbuilder"
	"nadroid/internal/corpus"
	"nadroid/internal/datalog"
	"nadroid/internal/dexasm"
	"nadroid/internal/framework"
	"nadroid/internal/pointsto"
	"nadroid/internal/threadify"
)

// buildModel makes an app with: a shared field on the activity (escapes:
// two listeners reach it), a thread-local object (one callback only),
// and a statically-reachable object.
func buildModel(t *testing.T) *threadify.Model {
	t.Helper()
	b := appbuilder.New("esc")
	act := b.Activity("e/A")
	act.Field("shared", "e/V")
	act.StaticField("global", "e/V")
	b.Class("e/V", framework.Object).Field("inner", "e/V")

	oc := act.Method("onCreate", 1)
	sv := oc.New("e/V") // stored in shared -> escapes
	oc.PutThis("shared", sv)
	gv := oc.New("e/V") // stored in a static -> escapes
	oc.PutStatic("e/A", "global", gv)
	lv := oc.New("e/V") // local only -> thread local
	_ = lv
	// Two listeners touch `shared`.
	for _, cls := range []string{"e/L1", "e/L2"} {
		l := b.Class(cls, framework.Object, framework.OnClickListener)
		l.Field("outer", "e/A")
		mb := l.Method("onClick", 1)
		o := mb.GetThis("outer")
		mb.GetField(o, "e/A", "shared")
		mb.Return()
		view := oc.New(framework.View)
		inst := oc.New(cls)
		oc.PutField(inst, cls, "outer", oc.This())
		oc.InvokeVoid(view, framework.View, "setOnClickListener", inst)
	}
	oc.Return()

	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// objBySite finds the abstract object allocated at the given site index
// of onCreate.
func objBySite(t *testing.T, m *threadify.Model, site string) pointsto.ObjID {
	t.Helper()
	for id, o := range m.PTS.Objects() {
		if o.Site == site {
			return pointsto.ObjID(id)
		}
	}
	t.Fatalf("no object with site %q", site)
	return -1
}

func TestSharedFieldEscapes(t *testing.T) {
	m := buildModel(t)
	res := Analyze(m)
	shared := objBySite(t, m, "e/A.onCreate:0")
	if !res.Escaped(shared) {
		t.Error("object stored in a two-listener field must escape")
	}
	if res.ReacherCount(shared) < 3 {
		t.Errorf("reachers = %d, want >= 3 (onCreate + two listeners)", res.ReacherCount(shared))
	}
}

func TestStaticReachableEscapes(t *testing.T) {
	m := buildModel(t)
	res := Analyze(m)
	global := objBySite(t, m, "e/A.onCreate:2")
	if !res.Escaped(global) {
		t.Error("statically-reachable objects escape")
	}
}

func TestLocalObjectDoesNotEscape(t *testing.T) {
	m := buildModel(t)
	res := Analyze(m)
	local := objBySite(t, m, "e/A.onCreate:4")
	if res.Escaped(local) {
		t.Error("an object confined to one callback must not escape")
	}
	if res.ReacherCount(local) != 1 {
		t.Errorf("local reachers = %d, want 1", res.ReacherCount(local))
	}
}

// Heap reachability is transitive: an object stored in a field of an
// escaped object escapes too.
func TestTransitiveHeapEscape(t *testing.T) {
	b := appbuilder.New("esc2")
	act := b.Activity("e2/A")
	act.Field("box", "e2/V")
	b.Class("e2/V", framework.Object).Field("inner", "e2/V")
	oc := act.Method("onCreate", 1)
	box := oc.New("e2/V")
	oc.PutThis("box", box)
	inner := oc.New("e2/V")
	oc.PutField(box, "e2/V", "inner", inner)
	l := b.Class("e2/L", framework.Object, framework.OnClickListener)
	l.Field("outer", "e2/A")
	mb := l.Method("onClick", 1)
	o := mb.GetThis("outer")
	mb.GetField(o, "e2/A", "box")
	mb.Return()
	view := oc.New(framework.View)
	inst := oc.New("e2/L")
	oc.PutField(inst, "e2/L", "outer", oc.This())
	oc.InvokeVoid(view, framework.View, "setOnClickListener", inst)
	oc.Return()
	pkg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(m)
	in := objBySite(t, m, "e2/A.onCreate:2")
	if !res.Escaped(in) {
		t.Error("heap-transitive reachability must mark inner escaped")
	}
}

// inputs are the raw facts the escape analysis runs on.
type inputs struct {
	numObjs int
	edges   []HeapEdge
	statics []pointsto.ObjID
	roots   map[int][]pointsto.ObjID // non-dummy thread ID -> roots
}

// modelInputs extracts a model's escape facts, as AnalyzeDetailed does.
func modelInputs(m *threadify.Model) inputs {
	in := inputs{
		numObjs: len(m.PTS.Objects()),
		edges:   HeapEdges(m.PTS),
		statics: StaticSeeds(m.PTS),
		roots:   make(map[int][]pointsto.ObjID),
	}
	for _, th := range m.Threads {
		if th.Kind != threadify.KindDummyMain {
			in.roots[th.ID] = RootObjs(m, th.ID)
		}
	}
	return in
}

// solvedEngine is the test oracle: the paper's escape rules, run to
// fixpoint on the Datalog engine.
func solvedEngine(in inputs) *datalog.Engine {
	e := datalog.NewEngine()
	objSym := func(o pointsto.ObjID) datalog.Sym { return e.IntSym('h', int(o)) }
	thrSym := func(t int) datalog.Sym { return e.IntSym('t', t) }
	for t, rs := range in.roots {
		for _, o := range rs {
			e.Fact("Root", thrSym(t), objSym(o))
		}
		e.Fact("Touches", thrSym(t))
	}
	for _, edge := range in.edges {
		e.Fact("HeapPT", objSym(edge.Src), e.Sym("f:"+edge.Field), objSym(edge.Dst))
	}
	for _, o := range in.statics {
		e.Fact("StaticPT", objSym(o))
	}
	e.MustRule("Reach(t, h) :- Root(t, h)")
	e.MustRule("Reach(t, h2) :- Reach(t, h1), HeapPT(h1, f, h2)")
	e.MustRule("Reach(t, h) :- Touches(t), StaticPT(h)")
	e.MustRule("StaticPT(h2) :- StaticPT(h1), HeapPT(h1, f, h2)")
	e.MustRule("Escapes(h) :- Reach(t1, h), Reach(t2, h), t1 != t2")
	e.Run()
	return e
}

// oracle reads the Result and Detail off the solved oracle engine.
func oracle(in inputs) (*Result, *Detail) {
	e := solvedEngine(in)
	res := &Result{
		escaped:  make(map[pointsto.ObjID]bool),
		reachers: make(map[pointsto.ObjID]int),
	}
	for id := 0; id < in.numObjs; id++ {
		o := pointsto.ObjID(id)
		sym := e.IntSym('h', id)
		if e.Has("Escapes", sym) {
			res.escaped[o] = true
		}
		res.reachers[o] = len(e.Query("Reach", datalog.Wild, sym))
	}
	det := &Detail{Reach: make(map[int][]pointsto.ObjID)}
	for t := range in.roots {
		det.Reach[t] = reachRow(e, e.IntSym('t', t))
	}
	for _, row := range e.Query("StaticPT", datalog.Wild) {
		if _, v, ok := e.IntSymVal(row[0]); ok {
			det.Statics = append(det.Statics, pointsto.ObjID(v))
		}
	}
	sort.Slice(det.Statics, func(i, j int) bool { return det.Statics[i] < det.Statics[j] })
	return res, det
}

// checkAgainstOracle compares a Result and Detail with the oracle's.
func checkAgainstOracle(t *testing.T, name string, in inputs, res *Result, det *Detail) {
	t.Helper()
	want, wantDet := oracle(in)
	for id := 0; id < in.numObjs; id++ {
		o := pointsto.ObjID(id)
		if res.Escaped(o) != want.Escaped(o) || res.ReacherCount(o) != want.ReacherCount(o) {
			t.Errorf("%s: object %d: escaped %v reachers %d, oracle %v %d", name, id,
				res.Escaped(o), res.ReacherCount(o), want.Escaped(o), want.ReacherCount(o))
		}
	}
	if !reflect.DeepEqual(det.Reach, wantDet.Reach) {
		t.Errorf("%s: Detail.Reach differs from the oracle", name)
	}
	if !reflect.DeepEqual(det.Statics, wantDet.Statics) {
		t.Errorf("%s: Detail.Statics = %v, oracle %v", name, det.Statics, wantDet.Statics)
	}
}

func checkModel(t *testing.T, name string, pkg *apk.Package) {
	t.Helper()
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, det := AnalyzeDetailed(m, Options{})
	checkAgainstOracle(t, name, modelInputs(m), res, det)
	if !reflect.DeepEqual(AnalyzeWith(m, Options{}), res) {
		t.Errorf("%s: AnalyzeWith and AnalyzeDetailed disagree", name)
	}
}

func TestMatchesOracleOnCorpus(t *testing.T) {
	for _, app := range append(corpus.Apps(), corpus.AsyncApps()...) {
		checkModel(t, app.Name(), app.Build())
	}
}

func TestMatchesOracleOnExamples(t *testing.T) {
	pkgs := exampleApps(t)
	if len(pkgs) == 0 {
		t.Fatal("no example apps found")
	}
	for name, pkg := range pkgs {
		checkModel(t, "examples/"+name, pkg)
	}
}

// TestMatchesOracleOnRandomGraphs runs the bitset reach against the
// oracle on seeded random heap graphs: cycles, self-loops, duplicate
// edges, static seeds, objects shared between threads' roots, and
// threads with no roots at all.
func TestMatchesOracleOnRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := inputs{numObjs: 1 + rng.Intn(150), roots: make(map[int][]pointsto.ObjID)}
		obj := func() pointsto.ObjID { return pointsto.ObjID(rng.Intn(in.numObjs)) }
		for i := rng.Intn(2 * in.numObjs); i > 0; i-- {
			in.edges = append(in.edges, HeapEdge{Src: obj(), Field: fmt.Sprint("f", rng.Intn(3)), Dst: obj()})
		}
		for i := rng.Intn(4); i > 0; i-- {
			in.statics = append(in.statics, obj())
		}
		shared := []pointsto.ObjID{obj(), obj()}
		for th := rng.Intn(10); th > 0; th-- {
			id := 1 + 2*th // sparse IDs, as with dummy-main threads left out
			var rs []pointsto.ObjID
			for i := rng.Intn(5); i > 0; i-- {
				rs = append(rs, obj())
			}
			if rng.Intn(2) == 0 {
				rs = append(rs, shared[rng.Intn(len(shared))])
			}
			in.roots[id] = rs
		}
		res, det := solve(in.numObjs, in.edges, in.statics, in.roots)
		checkAgainstOracle(t, fmt.Sprint("seed ", seed), in, res, det)
	}
}

// exampleApps builds the app of every examples/ program. Each program
// is run with a build overlay that prints its package as dexasm and
// exits right after the `pkg, err := ...` line that builds it; the
// output is parsed back. A program with no such line must analyze a
// corpus app, which the corpus sweep covers.
func exampleApps(t *testing.T) map[string]*apk.Package {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH:", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mains, err := filepath.Glob(filepath.Join(root, "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	buildLine := regexp.MustCompile(`(?m)^\tpkg, err := .*$`)
	tmp := t.TempDir()
	dump := filepath.Join(tmp, "dump.go")
	writeFile(t, dump, dumpSource)
	out := make(map[string]*apk.Package)
	for _, main := range mains {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		src, err := os.ReadFile(main)
		if err != nil {
			t.Fatal(err)
		}
		loc := buildLine.FindIndex(src)
		if loc == nil {
			if !bytes.Contains(src, []byte("corpus.ByName(")) {
				t.Fatalf("examples/%s: no `pkg, err :=` build line and no corpus app", name)
			}
			continue
		}
		patched := filepath.Join(tmp, name+".go")
		writeFile(t, patched, string(src[:loc[1]])+"\n\tdumpDexasm(pkg, err)"+string(src[loc[1]:]))
		overlay, err := json.Marshal(map[string]map[string]string{"Replace": {
			main:                                 patched,
			filepath.Join(dir, "zz_dump_gen.go"): dump,
		}})
		if err != nil {
			t.Fatal(err)
		}
		overlayPath := filepath.Join(tmp, name+".json")
		writeFile(t, overlayPath, string(overlay))
		cmd := exec.Command(goTool, "run", "-overlay", overlayPath, "./examples/"+name)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		text, err := cmd.Output()
		if err != nil {
			t.Fatalf("examples/%s: %v\n%s", name, err, stderr.String())
		}
		pkg, err := dexasm.Parse(string(text))
		if err != nil {
			t.Fatalf("examples/%s: parse dump: %v", name, err)
		}
		out[name] = pkg
	}
	return out
}

const dumpSource = `package main

import (
	"fmt"
	"os"

	"nadroid/internal/apk"
	"nadroid/internal/dexasm"
)

func dumpDexasm(pkg *apk.Package, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(dexasm.Format(pkg))
	os.Exit(0)
}
`

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
