// witness_golden_test.go pins the explorer's exact answers, not just
// its harmful sets: for every corpus app with surviving UAF warnings it
// records each warning's verdict, witness schedule, execution count and
// NPE site, plus the app's executed/pruned schedule counters, for the
// exhaustive and the partial-order-reduced explorer. Schedules index
// into the interpreter's sorted option list, so any change to option
// keys, their order, or what a schedule step does shows up here.
//
// Regenerate (only when an intentional change to exploration is
// reviewed):
//
//	go test -run TestWitnessGolden -update-golden
package nadroid_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nadroid/internal/corpus"
	"nadroid/internal/detect"
	"nadroid/internal/explore"
	"nadroid/internal/filters"
	"nadroid/internal/obs"
	"nadroid/internal/threadify"
	"nadroid/internal/uaf"
)

// witnessGoldenBudget is the per-warning schedule budget, the one the
// Table 1 validation sweep uses.
const witnessGoldenBudget = 3000

var witnessGoldenPath = filepath.Join(goldenDir, "witnesses.json")

// witnessRecord is one warning's validation outcome.
type witnessRecord struct {
	Warning    string `json:"warning"`
	Harmful    bool   `json:"harmful"`
	Schedule   []int  `json:"schedule,omitempty"`
	Opaque     bool   `json:"opaque_branches,omitempty"`
	Executions int    `json:"executions,omitempty"`
	NPEAt      string `json:"npe_at,omitempty"`
	LoadedAt   string `json:"loaded_at,omitempty"`
	Field      string `json:"field,omitempty"`
}

// witnessApp is one app's validation sweep under one explorer mode.
type witnessApp struct {
	App      string          `json:"app"`
	Executed int64           `json:"schedules_executed"`
	Pruned   int64           `json:"schedules_pruned"`
	Warnings []witnessRecord `json:"warnings"`
}

// witnessGolden is testdata/golden/witnesses.json.
type witnessGolden struct {
	Budget     int          `json:"max_schedules"`
	Exhaustive []witnessApp `json:"exhaustive"`
	Pruned     []witnessApp `json:"pruned"`
}

// validationInput is one app's explorer input: the package, its model,
// the surviving warnings and the conflict relation for pruning.
type validationInput struct {
	name      string
	dc        *detect.Context
	model     *threadify.Model
	alive     []*uaf.Warning
	conflicts *explore.Conflicts
}

// validationInputs runs detection and filtering on every corpus app and
// keeps the apps with surviving UAF warnings.
func validationInputs(t *testing.T) []validationInput {
	t.Helper()
	var out []validationInput
	for _, app := range corpus.Apps() {
		model, err := threadify.Build(app.Build(), threadify.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		dc := detect.BuildContext(context.Background(), app.Name(), model, detect.Options{Workers: 1})
		dres, err := detect.Run(context.Background(), dc, detect.All())
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if dres.UAF == nil {
			t.Fatalf("%s: no uaf detection", app.Name())
		}
		filters.RunWith(context.Background(), dres.UAF, filters.RunConfig{Workers: 1, MHB: dc.MHB})
		alive := dres.UAF.Alive()
		if len(alive) == 0 {
			continue
		}
		out = append(out, validationInput{
			name: app.Name(), dc: dc, model: model, alive: alive,
			conflicts: explore.NewConflicts(model, dc.Accesses),
		})
	}
	return out
}

// sweepWitnesses validates every input's warnings at one worker count,
// with partial-order reduction when pruned is set.
func sweepWitnesses(t *testing.T, inputs []validationInput, workers int, pruned bool) []witnessApp {
	t.Helper()
	var out []witnessApp
	for _, in := range inputs {
		opts := explore.Options{MaxSchedules: witnessGoldenBudget, Workers: workers}
		if pruned {
			opts.Conflicts = in.conflicts
		}
		m := obs.NewMetrics()
		ctx := obs.WithMetrics(context.Background(), m)
		vals, err := explore.ValidateAllDetailed(ctx, in.model.Pkg, in.model, in.alive, opts)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		app := witnessApp{
			App:      in.name,
			Executed: m.Get("validation_schedules_executed"),
			Pruned:   m.Get("validation_schedules_pruned"),
		}
		for _, v := range vals {
			r := witnessRecord{Warning: v.Warning.Key(), Harmful: v.Harmful}
			if wit := v.Witness; wit != nil {
				r.Schedule = wit.Schedule
				r.Opaque = wit.OpaqueBranchesTaken
				r.Executions = wit.Executions
				r.NPEAt = wit.NPE.At.String()
				r.LoadedAt = wit.NPE.LoadedAt.String()
				r.Field = wit.NPE.Field.String()
			}
			app.Warnings = append(app.Warnings, r)
		}
		out = append(out, app)
	}
	return out
}

func TestWitnessGolden(t *testing.T) {
	inputs := validationInputs(t)
	if *updateGolden {
		g := witnessGolden{
			Budget:     witnessGoldenBudget,
			Exhaustive: sweepWitnesses(t, inputs, 1, false),
			Pruned:     sweepWitnesses(t, inputs, 1, true),
		}
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(witnessGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", witnessGoldenPath)
		return
	}
	data, err := os.ReadFile(witnessGoldenPath)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var want witnessGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", witnessGoldenPath, err)
	}
	if want.Budget != witnessGoldenBudget {
		t.Fatalf("golden budget %d, test budget %d", want.Budget, witnessGoldenBudget)
	}
	for _, workers := range []int{1, 8} {
		for _, mode := range []struct {
			name   string
			pruned bool
			want   []witnessApp
		}{{"exhaustive", false, want.Exhaustive}, {"pruned", true, want.Pruned}} {
			got := sweepWitnesses(t, inputs, workers, mode.pruned)
			if len(got) != len(mode.want) {
				t.Fatalf("%s workers=%d: %d apps with surviving warnings, golden has %d", mode.name, workers, len(got), len(mode.want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], mode.want[i]) {
					g, _ := json.Marshal(got[i])
					w, _ := json.Marshal(mode.want[i])
					t.Errorf("%s workers=%d %s differs from golden:\n got %s\nwant %s", mode.name, workers, mode.want[i].App, g, w)
				}
			}
		}
	}
}
