package eval

import (
	"fmt"
	"strings"

	"nadroid/internal/filters"
	"nadroid/internal/inject"
)

// Comparison is one paper-vs-measured checkpoint.
type Comparison struct {
	Artifact string // which table/figure
	Quantity string
	Paper    string
	Measured string
	// Match is true when the reproduction target holds (exact for
	// counts the paper fixes, shape-bounds for scaled percentages).
	Match bool
	// Deviation, when set, is the documented reason this reproduction
	// departs from the paper on this checkpoint. The row is still
	// measured and reported, but it does not gate the reproduction.
	Deviation string
}

// ComparePaper regenerates every headline number and checks it against
// the paper's. Validation of Table 1 is the expensive part; budget
// bounds each warning's exploration.
func ComparePaper(budget int) ([]Comparison, error) {
	if budget <= 0 {
		budget = 3000
	}
	var out []Comparison
	add := func(artifact, quantity, paper, measured string, match bool) {
		out = append(out, Comparison{Artifact: artifact, Quantity: quantity, Paper: paper, Measured: measured, Match: match})
	}

	// Table 1 with validation.
	rows, err := Table1(Table1Options{Validate: true, MaxSchedules: budget})
	if err != nil {
		return nil, err
	}
	total := 0
	perApp := map[string]int{}
	for _, r := range rows {
		total += r.TrueHarmful
		perApp[r.App] = r.TrueHarmful
	}
	add("Table 1", "true harmful UAFs (validated)", "88", fmt.Sprint(total), total == 88)
	add("Table 1", "ConnectBot true UAFs", "13", fmt.Sprint(perApp["ConnectBot"]), perApp["ConnectBot"] == 13)
	add("Table 1", "MyTracks_1 true UAFs", "29", fmt.Sprint(perApp["MyTracks_1"]), perApp["MyTracks_1"] == 29)
	// Chord's detection share came from its bddbddb thread-escape
	// self-join; escape here is a per-thread reach plus a reacher count,
	// so the static phases no longer have Chord's cost profile.
	tm := Timing(rows)
	add("§8.8", "detection share of static time", "95.73%",
		fmt.Sprintf("%.1f%%", tm.DetectionPct), tm.DetectionPct > 80)
	out[len(out)-1].Deviation = "escape is a per-thread reacher count, not Chord's Datalog self-join"

	// Figure 5.
	f, err := Figure5Data()
	if err != nil {
		return nil, err
	}
	pct := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(n) / float64(of)
	}
	ig := pct(f.SoundRemoved[filters.NameIG], f.Potential)
	mhb := pct(f.SoundRemoved[filters.NameMHB], f.Potential)
	ia := pct(f.SoundRemoved[filters.NameIA], f.Potential)
	add("Figure 5(a)", "IG alone", "66%", fmt.Sprintf("%.0f%%", ig), ig >= 40)
	add("Figure 5(a)", "MHB alone", "21%", fmt.Sprintf("%.0f%%", mhb), mhb >= 8)
	add("Figure 5(a)", "IA alone", "13%", fmt.Sprintf("%.0f%%", ia), ia >= 5)
	add("Figure 5(a)", "ordering IG > MHB > IA", "holds",
		fmt.Sprintf("%.0f/%.0f/%.0f", ig, mhb, ia), ig > mhb && mhb > ia)
	soundAll := pct(f.Potential-f.AfterSound, f.Potential)
	add("Figure 5(a)", "all sound filters", "88%", fmt.Sprintf("%.0f%%", soundAll), soundAll >= 65)
	unsoundAll := pct(f.AfterSound-f.AfterUnsound, f.AfterSound)
	add("Figure 5(b)", "all unsound filters", "70%", fmt.Sprintf("%.0f%%", unsoundAll), unsoundAll >= 50)

	// Table 2.
	t2, err := inject.Run(nil)
	if err != nil {
		return nil, err
	}
	all, missed, pruned := inject.Totals(t2)
	add("Table 2", "injected UAFs", "28", fmt.Sprint(all), all == 28)
	add("Table 2", "missed by detection", "2", fmt.Sprint(missed), missed == 2)
	add("Table 2", "pruned by unsound filters", "3", fmt.Sprint(pruned), pruned == 3)

	// Table 3.
	t3, err := Table3()
	if err != nil {
		return nil, err
	}
	var filtered, reported, notDetected int
	for _, r := range t3 {
		switch {
		case !r.Detected:
			notDetected++
		case r.Filtered:
			filtered++
		default:
			reported++
		}
	}
	add("Table 3", "DEvA warnings nAdroid filters", "11-12", fmt.Sprint(filtered), filtered >= 10)
	add("Table 3", "agreed harmful", "1", fmt.Sprint(reported), reported == 1)
	add("Table 3", "not detected (Fragment)", "1", fmt.Sprint(notDetected), notDetected == 1)

	return out, nil
}

// RenderComparison formats the checkpoint table. Rows with a documented
// deviation are listed, with their reason, apart from the checkpoints.
func RenderComparison(rows []Comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-34s %10s %10s  %s\n", "Artifact", "Quantity", "Paper", "Measured", "OK")
	ok := 0
	var devs []Comparison
	for _, r := range rows {
		mark := "FAIL"
		switch {
		case r.Deviation != "":
			mark = "deviation"
			devs = append(devs, r)
		case r.Match:
			mark = "ok"
			ok++
		}
		fmt.Fprintf(&b, "%-12s %-34s %10s %10s  %s\n", r.Artifact, r.Quantity, r.Paper, r.Measured, mark)
	}
	fmt.Fprintf(&b, "%d/%d reproduction checkpoints hold\n", ok, len(rows)-len(devs))
	for _, r := range devs {
		fmt.Fprintf(&b, "documented deviation, %s %s: %s\n", r.Artifact, r.Quantity, r.Deviation)
	}
	return b.String()
}
