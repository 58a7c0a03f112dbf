package distclk

import (
	"context"
	"testing"
	"time"

	"distclk/internal/tsp"
)

// TestWithCandidatesValidation: names are validated at option-apply time,
// impossible explicit choices at Solve time.
func TestWithCandidatesValidation(t *testing.T) {
	in, _ := Generate("uniform", 40, 3)
	if _, err := New(in, WithCandidates("voronoi")); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := New(in, WithRelaxedGain(-1)); err == nil {
		t.Error("negative relax depth accepted")
	}
	for _, name := range []string{"auto", "knn", "quadrant", "alpha", "delaunay"} {
		if _, err := New(in, WithCandidates(name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// delaunay on a matrix-only instance fails the solve with a clear
	// error; auto on the same instance succeeds (knn fallback).
	ex, err := tsp.NewExplicit("m5", 5, []int64{
		0, 2, 9, 10, 7,
		2, 0, 6, 4, 3,
		9, 6, 0, 8, 5,
		10, 4, 8, 0, 6,
		7, 3, 5, 6, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(opts ...Option) error {
		s, err := New(ex, opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Solve(context.Background())
		return err
	}
	if err := solve(WithCandidates("delaunay"), WithBudget(time.Second)); err == nil {
		t.Error("delaunay on explicit instance: want Solve error")
	}
	if err := solve(WithBudget(200 * time.Millisecond)); err != nil {
		t.Errorf("auto on explicit instance: %v", err)
	}
}

// TestAutoCandidatesDeterministic pins the acceptance criterion: a fixed
// seed with WithCandidates("auto") yields byte-identical tours run over
// run (the probe, the strategy build, and the relaxed-gain search are all
// deterministic).
func TestAutoCandidatesDeterministic(t *testing.T) {
	run := func() Tour {
		in, _ := Generate("drill", 400, 11)
		s, err := New(in,
			WithCandidates("auto"),
			WithMaxKicks(60),
			WithBudget(time.Minute),
			WithSeed(7),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Tour
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("tour sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tours diverge at position %d for identical seeds", i)
		}
	}
}

// TestCandidateStrategiesSolve: every strategy drives a full solve to a
// valid tour, in both single-worker and distributed modes.
func TestCandidateStrategiesSolve(t *testing.T) {
	for _, name := range []string{"knn", "quadrant", "alpha", "delaunay"} {
		in, _ := Generate("uniform", 200, 5)
		s, err := New(in,
			WithCandidates(name),
			WithRelaxedGain(2),
			WithMaxKicks(40),
			WithBudget(30*time.Second),
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Tour.Validate(200); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Distributed mode shares the same resolved lists across nodes.
	in, _ := Generate("clustered", 120, 9)
	s, err := New(in, WithNodes(2),
		WithCandidates("quadrant"),
		WithKicksPerCall(30),
		WithBudget(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tour.Validate(120); err != nil {
		t.Fatal(err)
	}
}
