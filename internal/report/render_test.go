package report

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// golden compares got against testdata/<name>, rewriting it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/report -run %s -update` to create)", err, t.Name())
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// syntheticArtifact builds a fixed artifact so rendering is exercised
// without running any solver.
func syntheticArtifact() *Artifact {
	e := &Experiment{
		ID: "t9", Paper: "Table 9", Section: "§9.9",
		Title:     "synthetic rendering fixture",
		Instances: []string{"x100", "y200"},
		Runs:      2, Seed: 1, CLKKicks: 10, NodeIters: 3, Nodes: []int{8},
		Baselines: []Baseline{{Row: "x100", Metric: "gap", Paper: "0.1%", Claim: "gap < 1%"}},
	}
	tbl := &Table{Header: []string{"instance", "gap", "note"}}
	tbl.AddRow("x100", 0.125, "pipe | escaped")
	tbl.AddRow("y200", "-", "plain")
	csv := CSVFile{
		Name:    "smoke/t9.csv",
		Comment: schemaComment(e, "smoke/t9.csv", "columns: instance, gap_pct"),
		Header:  []string{"instance", "gap_pct"},
	}
	csv.AddRow("x100", 0.125)
	csv.AddRow("y200", int64(7))
	return &Artifact{
		Exp:  e,
		Body: sectionBody(e, []*Table{tbl}, []string{"a note"}),
		CSVs: []CSVFile{csv},
		Deltas: []Delta{{Exp: "t9", Row: "x100", Metric: "gap", Paper: "0.1%",
			Repro: "0.125%", Claim: "gap < 1%", OK: true}},
	}
}

func TestSectionBodyGolden(t *testing.T) {
	golden(t, "section_body.md", syntheticArtifact().Body)
}

func TestCSVRenderGolden(t *testing.T) {
	golden(t, "csv_render.csv", syntheticArtifact().CSVs[0].Render())
}

func TestReproductionMDGolden(t *testing.T) {
	a := syntheticArtifact()
	b := syntheticArtifact()
	b.Deltas[0].OK = false
	b.Deltas[0].Repro = "2.5%"
	golden(t, "reproduction.md", ReproductionMD([]*Artifact{a, b}))
}

func TestTableMarkdownEscapesPipes(t *testing.T) {
	tbl := &Table{Header: []string{"a"}}
	tbl.AddRow("x|y")
	got := tbl.Markdown()
	want := "| a |\n| --- |\n| x\\|y |\n"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestManifestShape(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Manifest() {
		if e.ID == "" || seen[e.ID] {
			t.Errorf("experiment ID %q empty or duplicated", e.ID)
		}
		seen[e.ID] = true
		if e.run == nil {
			t.Errorf("%s: no run hook", e.ID)
		}
		if len(e.Baselines) == 0 {
			t.Errorf("%s: no baselines to diff against", e.ID)
		}
		// Paper reproductions need multiple seeds behind every claim. The
		// scaling extension checks deterministic protocol/topology
		// properties and its 1024-node cells are the cost ceiling of the
		// whole manifest, so a single seeded run is its deliberate budget.
		minRuns := 2
		if e.ID == "scaling" {
			minRuns = 1
		}
		if e.Runs < minRuns {
			t.Errorf("%s: fewer than %d runs", e.ID, minRuns)
		}
	}
}
