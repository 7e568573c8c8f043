// Command perfbench is nadroid's end-to-end and per-layer benchmark.
//
//	perfbench --workload cold-sweep|validate-sweep|serve-updates \
//	          --seed N --seconds S --trace 0|1
//
// It generates its inputs from the seed, runs a fixed amount of work
// sized so that a run lasts about S seconds on a 2-core machine, checks
// every answer against the generator's ground truth, and prints one
// JSON result as the last line of standard output. With --trace 0 the
// result holds the end-to-end metrics; with --trace 1 it holds the
// per-layer table of BENCHMARK.json from a separate traced run. Run it
// from the repository root, where it reads BENCHMARK.json. README.md
// explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// layerDef is one per_layer row of BENCHMARK.json. README.md names each
// row's layer and the end-to-end metric and workload it should move.
type layerDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadLayerTable reads the per-layer metric table from BENCHMARK.json.
func loadLayerTable(path string) ([]layerDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		PerLayer []layerDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bench.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no per_layer metrics", path)
	}
	return bench.PerLayer, nil
}

// workload is one workload's runner and its fixed amount of work per
// second of --seconds: 27-app rounds for the sweeps, requests for
// serve-updates. The sweep rates are calibrated so a run lasts about
// --seconds on 2 cores; serve-updates is held to about a third of that,
// because the service keeps every finished job in memory (README.md).
type workload struct {
	run       func(cfg config) (*outcome, error)
	perSecond float64
}

var workloads = map[string]workload{
	"cold-sweep":     {run: func(c config) (*outcome, error) { return runSweep(c, false) }, perSecond: 0.8},
	"validate-sweep": {run: func(c config) (*outcome, error) { return runSweep(c, true) }, perSecond: 0.45},
	"serve-updates":  {run: runServe, perSecond: 107},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for trace files and service stores
	callers  int    // closed-loop callers / clients: one per CPU
	wl       workload
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload run hands back to main.
type outcome struct {
	callers   int // closed-loop callers or clients the run used
	attempted int
	failed    int
	errs      []string // why operations failed
	wrong     []string // answers that disagree with the spec
	problems  []string // failed self-checks of the traced run
	metrics   metrics
	spans     []span
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold-sweep, validate-sweep or serve-updates")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "run size: work for about this many seconds on 2 cores")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pipeline and reports the per-layer table")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-runs"), "directory for run records and service stores")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-sweep|validate-sweep|serve-updates, --seconds >= 1, --trace 0|1")
		return 2
	}
	cfg.wl, cfg.trace = wl, trace == 1
	cfg.callers = runtime.NumCPU()
	defs, err := loadLayerTable("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading the layer table:", err)
		return 1
	}

	prov := provenance(cfg)
	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		// Exactly the table's metrics, in its units; a layer the
		// workload does not reach reads 0.
		layers := metrics{}
		for _, d := range defs {
			layers.set(d.Name, out.metrics[d.Name].Value, d.Unit)
		}
		out.metrics = layers
	}
	res := result{
		Correct:   len(out.wrong) == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	prov["callers"] = out.callers
	prov["wrong_results"] = len(out.wrong)
	prov["fail_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", e)
	}
	for _, w := range append(out.wrong, out.problems...) {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", w)
	}
	if err := writeRecord(cfg, prov, res, out.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		return 1
	}
	line, _ := json.Marshal(map[string]interface{}{"provenance": prov}) // plain values always marshal
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// provenance records what produced a run.
func provenance(cfg config) map[string]interface{} {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]interface{}{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

// sourceDigest hashes every Go source and module file under root (build
// output excluded), identifying the code measured when the checkout
// carries no commit.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just stays out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(f))
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeRecord writes the run's provenance, result and spans under
// cfg.out.
func writeRecord(cfg config, prov map[string]interface{}, res result, spans []span) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	data, err := json.Marshal(map[string]interface{}{
		"provenance": prov,
		"result":     res,
		"spans":      spans,
		"written_at": time.Now().UTC().Format(time.RFC3339),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, name), data, 0o644)
}

// timeSetup runs set-up reps times and returns the last set-up's value
// with the median set-up time in seconds. Every repetition but the last
// is released with drop, and a garbage collection before each one
// starts it on the same heap, not on the garbage of the one before.
func timeSetup[T any](reps int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var v T
	var secs []float64
	for r := 0; r < reps; r++ {
		runtime.GC()
		start := time.Now()
		got, err := setup()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if r < reps-1 {
			drop(got)
			continue
		}
		v = got
	}
	return v, median(secs), nil
}

// sweepRounds is the number of 27-app rounds a sweep run analyzes.
func (c config) sweepRounds() int {
	return max(1, int(float64(c.seconds)*c.wl.perSecond+0.5))
}
