package report

import (
	"testing"

	"distclk/internal/tsp"
)

// findExp pulls one experiment out of the manifest by ID.
func findExp(t *testing.T, id string) *Experiment {
	t.Helper()
	for _, e := range Manifest() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("experiment %s not in manifest", id)
	return nil
}

// TestExperimentDeterminism runs the cheapest manifest experiment twice with
// fresh runners and requires byte-identical artifacts — the property
// `make repro-smoke` enforces for the whole manifest in CI.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simnet cluster; skipped in -short")
	}
	e := findExp(t, "variator")
	first, err := e.Run(NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	if first.Body != second.Body {
		t.Errorf("markdown body differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s",
			first.Body, second.Body)
	}
	if len(first.CSVs) != len(second.CSVs) {
		t.Fatalf("CSV count differs: %d vs %d", len(first.CSVs), len(second.CSVs))
	}
	for i := range first.CSVs {
		if first.CSVs[i].Render() != second.CSVs[i].Render() {
			t.Errorf("CSV %s differs between identical runs", first.CSVs[i].Name)
		}
	}
	if len(first.Deltas) != len(e.Baselines) {
		t.Errorf("got %d deltas for %d baselines", len(first.Deltas), len(e.Baselines))
	}
}

// TestStandInRule pins the stand-in every manifest instance resolves to:
// the paper's family, n = max(N/16, 120) and the name <paper>-standin.
func TestStandInRule(t *testing.T) {
	want := map[string]struct {
		fam tsp.Family
		n   int
	}{
		"C1k.1":   {tsp.FamilyClustered, 120}, // 1000/16 = 62, floored
		"E1k.1":   {tsp.FamilyUniform, 120},   // 1000/16 = 62, floored
		"fl1577":  {tsp.FamilyDrill, 120},     // 1577/16 = 98, floored
		"pr2392":  {tsp.FamilyGrid, 149},
		"fl3795":  {tsp.FamilyDrill, 237},
		"sw24978": {tsp.FamilyNational, 1561},
	}
	r := NewRunner()
	for _, e := range Manifest() {
		for _, name := range e.Instances {
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: instance %s has no pinned stand-in", e.ID, name)
				continue
			}
			fam, n, err := standIn(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if fam != w.fam || n != w.n {
				t.Errorf("%s resolves to %v/%d, want %v/%d", name, fam, n, w.fam, w.n)
			}
			in, err := r.Instance(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if in.N() != w.n || in.Name != name+"-standin" {
				t.Errorf("%s instance = %s with %d cities, want %s-standin with %d", name, in.Name, in.N(), name, w.n)
			}
		}
	}
	if _, err := r.Instance("no-such-instance"); err == nil {
		t.Error("unknown instance name resolved without an error")
	}
}
