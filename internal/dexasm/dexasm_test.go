package dexasm

import (
	"os"
	"strings"
	"testing"
	"testing/quick"

	"nadroid/internal/corpus"
	"nadroid/internal/filters"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

const sample = `
app demo

manifest {
  activity demo/Main main
  activity demo/Hidden unreachable
  service demo/Svc
}

class demo/V extends java/lang/Object {
  method use(0) {
    return
  }
}

class demo/Main extends android/app/Activity {
  field f demo/V
  static-field shared demo/V
  method onCreate(1) {
    r2 = new demo/V
    r0.demo/Main.f = r2
    static demo/Main.shared = r2
    r3 = r0.demo/Main.f
    call r3.demo/V.use()
    return
  }
  method onPause(0) {
    r1 = null
    r0.demo/Main.f = r1
    return
  }
  synchronized method guarded(0) {
    r1 = r0.demo/Main.f
    if r1 == null goto skip
    r2 = r0.demo/Main.f
    call r2.demo/V.use()
  skip:
    return
  }
}

class demo/Hidden extends android/app/Activity {
}

class demo/Svc extends android/app/Service {
  method onDestroy(0) {
    return
  }
}

class demo/Helper extends java/lang/Object inner demo/Main {
  method help(1) {
    r2 = r1
    r3 = 42
    r4 = "hello"
    return r2
  }
}
`

func TestParseSample(t *testing.T) {
	pkg, err := Parse(sample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if pkg.Name != "demo" {
		t.Errorf("name = %q", pkg.Name)
	}
	if got := len(pkg.Manifest.Components()); got != 3 {
		t.Errorf("components = %d, want 3", got)
	}
	hidden := pkg.Manifest.Component("demo/Hidden")
	if hidden == nil || hidden.Reachable {
		t.Error("demo/Hidden must be declared unreachable")
	}
	main := pkg.Program.Class("demo/Main")
	if main == nil {
		t.Fatal("missing demo/Main")
	}
	if main.Field("f") == nil || main.Field("shared") == nil || !main.Field("shared").Static {
		t.Error("field declarations wrong")
	}
	g := main.Method("guarded")
	if g == nil || !g.Synch {
		t.Fatal("guarded must be synchronized")
	}
	if _, ok := g.Labels["skip"]; !ok {
		t.Error("missing label skip")
	}
	helper := pkg.Program.Class("demo/Helper")
	if helper == nil || helper.Outer != "demo/Main" {
		t.Error("inner-class attribution lost")
	}
}

func TestRoundTripStable(t *testing.T) {
	pkg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text1 := Format(pkg)
	pkg2, err := Parse(text1)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text1)
	}
	text2 := Format(pkg2)
	if text1 != text2 {
		t.Errorf("format/parse round trip unstable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

// Property-style check over the whole corpus: every generated app
// formats, re-parses, and re-formats identically, and the re-parsed app
// produces the same analysis results.
func TestCorpusRoundTripPreservesAnalysis(t *testing.T) {
	for _, name := range []string{"ToDoList", "ConnectBot", "Aard"} {
		app, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("unknown corpus app %s", name)
		}
		pkg := app.Build()
		text := Format(pkg)
		pkg2, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", name, err)
		}
		if Format(pkg2) != text {
			t.Errorf("%s: round trip unstable", name)
		}
		m1, err := threadify.Build(pkg, threadify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m2, err := threadify.Build(pkg2, threadify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d1, d2 := uaf.Detect(m1), uaf.Detect(m2)
		s1, s2 := filters.Run(d1), filters.Run(d2)
		if s1.Potential != s2.Potential || s1.AfterSound != s2.AfterSound || s1.AfterUnsound != s2.AfterUnsound {
			t.Errorf("%s: analysis differs after round trip: %+v vs %+v", name, s1, s2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"class X extends Y {",              // no app
		"app a\nmanifest {\n  widget X\n}", // unknown component kind
		"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    r1 = frobnicate\n  }\n}",
		"app a\nclass X extends java/lang/Object {\n  method m(0) {\n    goto nowhere\n  }\n}", // unresolved label caught by validation
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Malformed inputs that once panicked inside package ir (duplicate
// members) or in cha.New on the first analysis (cyclic hierarchy). Each
// must come back from Parse as an error naming the offending line or
// class, never as a panic.
var malformedSources = []struct {
	name, src, want string
}{
	{"duplicate-method", "app a\nmanifest {\n  activity A/Main main\n}\nclass A/Main extends android/app/Activity {\n  method onCreate(1) {\n    return\n  }\n  method onCreate(1) {\n    return\n  }\n}\n",
		"line 9: duplicate method A/Main.onCreate"},
	{"duplicate-field", "class 0 extends 0\nfield 1 0\nfield 1 0", "line 3: duplicate field 0.1"},
	{"duplicate-static-field", "app a\nclass X extends java/lang/Object {\n  field f X\n  static-field f X\n}\n", "line 4: duplicate field X.f"},
	{"duplicate-class", "app a\nclass X extends java/lang/Object {\n}\nclass X extends java/lang/Object {\n}\n", "line 4: duplicate class X"},
	{"redeclared-framework-class", "app a\nclass android/app/Activity extends java/lang/Object {\n}\n", "line 2: duplicate class android/app/Activity"},
	{"self-supertype", "app a\nmanifest {\n  activity A/Main main\n}\nclass A/Main extends A/Main {\n}\n", "cyclic class hierarchy at A/Main"},
	{"supertype-cycle", "app a\nclass A/X extends A/Y {\n}\nclass A/Y extends java/lang/Object implements A/Z {\n}\nclass A/Z extends A/X {\n}\n", "cyclic class hierarchy at A/X"},
}

func TestParseRejectsMalformedPrograms(t *testing.T) {
	for _, tc := range malformedSources {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse panicked: %v", r)
				}
			}()
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatal("Parse accepted a malformed program")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFormatSkipsFrameworkClasses(t *testing.T) {
	pkg, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(pkg)
	if strings.Contains(text, "class android/app/Activity") {
		t.Error("framework skeletons must not be serialized")
	}
	if !strings.Contains(text, "class demo/Main") {
		t.Error("app classes must be serialized")
	}
}

// The checked-in golden file (generated by `nadroid -dump ConnectBot`)
// must keep parsing and yield the same analysis results as the in-memory
// corpus build — a guard against format drift.
func TestGoldenFileMatchesCorpus(t *testing.T) {
	data, err := os.ReadFile("testdata/connectbot.dexasm")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := Parse(string(data))
	if err != nil {
		t.Fatalf("golden parse: %v", err)
	}
	m, err := threadify.Build(pkg, threadify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := uaf.Detect(m)
	st := filters.Run(d)
	if st.AfterUnsound != 13 {
		t.Errorf("golden ConnectBot survivors = %d, want 13", st.AfterUnsound)
	}
}

// Property: random small corpus specs round-trip byte-identically and
// preserve program size.
func TestRandomSpecRoundTrip(t *testing.T) {
	f := func(nTrue, nIG, nMHB, nUR, nFP uint8) bool {
		spec := corpus.Spec{
			Name:         "rnd",
			TrueService:  int(nTrue % 3),
			IGLooper:     int(nIG % 4),
			MHBService:   int(nMHB % 3),
			URReturn:     int(nUR % 3),
			FPPathInsens: int(nFP % 2),
		}
		pkg := spec.Build()
		text := Format(pkg)
		pkg2, err := Parse(text)
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		return Format(pkg2) == text && pkg2.Size() == pkg.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
