package main

import (
	"slices"
	"testing"

	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// Every mode's nodes search the lists -candidates names. The in-process
// cluster and simnet build their nodes from dist.ShareCandidates' config,
// a TCP node from the config as given.
func TestCandidatesReachEveryMode(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 500, 1)
	want, err := neighbor.BuildDelaunay(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	nbr, relax, err := candidates(in, "delaunay", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if relax != 0 {
		t.Fatalf("delaunay recommends relax depth %d, want 0", relax)
	}
	ea := core.DefaultConfig()
	ea.CLK.Neighbors = nbr
	for mode, cfg := range map[string]core.Config{
		"in-process/simnet": dist.ShareCandidates(in, ea),
		"tcp":               ea,
	} {
		got := dist.NewNode(0, in, cfg, core.NopComm{}, 1, nil).Solver().Nbr
		ragged := false
		for c := range int32(in.N()) {
			if !slices.Equal(got.Of(c), want.Of(c)) {
				t.Fatalf("%s: city %d searches %v, delaunay gives %v", mode, c, got.Of(c), want.Of(c))
			}
			ragged = ragged || len(got.Of(c)) != 10
		}
		if !ragged {
			t.Fatalf("%s: every city has 10 candidates, as knn would give", mode)
		}
	}
}

// auto's relax depth applies unless -relax is set explicitly, which wins
// even when it asks for the classic rule.
func TestCandidatesRelaxDepth(t *testing.T) {
	drill := tsp.Generate(tsp.FamilyDrill, 600, 1)
	rec := neighbor.Auto(tsp.Describe(drill)).RelaxDepth
	if rec == 0 {
		t.Fatal("auto recommends no relax depth on a drill instance; the test needs one")
	}
	for _, tc := range []struct {
		name     string
		relax    int
		relaxSet bool
		want     int
	}{
		{"auto", 0, false, rec},
		{"auto", 0, true, 0},
		{"auto", 2, true, 2},
		{"knn", 0, false, 0},
		{"knn", 2, true, 2},
	} {
		_, got, err := candidates(drill, tc.name, tc.relax, tc.relaxSet)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s with -relax %d (set %v): depth %d, want %d", tc.name, tc.relax, tc.relaxSet, got, tc.want)
		}
	}
	if _, _, err := candidates(drill, "voronoi", 0, false); err == nil {
		t.Error("unknown strategy accepted")
	}
}
