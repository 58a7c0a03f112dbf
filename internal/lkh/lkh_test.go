package lkh

import (
	"testing"
	"time"

	"distclk/internal/exact"
	"distclk/internal/heldkarp"
	"distclk/internal/tsp"
)

func TestSolveSmallToOptimum(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 15, 5)
	_, optLen, err := exact.HeldKarp(in)
	if err != nil {
		t.Fatal(err)
	}
	res := Solve(in, DefaultParams(), 1, time.Now().Add(30*time.Second), optLen)
	if res.Length != optLen {
		t.Fatalf("LKH-style reached %d, optimum %d", res.Length, optLen)
	}
	if err := res.Tour.Validate(15); err != nil {
		t.Fatal(err)
	}
}

func TestSolveQualityOnMedium(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 300, 7)
	p := DefaultParams()
	p.Trials = 150
	p.AscentIterations = 40
	res := Solve(in, p, 2, time.Time{}, 0)
	if err := res.Tour.Validate(300); err != nil {
		t.Fatal(err)
	}
	if res.Tour.Length(in) != res.Length {
		t.Fatalf("length mismatch: %d vs %d", res.Tour.Length(in), res.Length)
	}
	// Anchor quality to the Held-Karp lower bound: LKH-style tours on
	// uniform instances should be within ~6% of it (HK itself sits ~1%
	// below the optimum).
	hk := heldkarp.LowerBound(in, heldkarp.Options{Iterations: 100, UpperBound: res.Length})
	gap := float64(res.Length-hk.Bound) / float64(hk.Bound)
	if gap > 0.06 {
		t.Fatalf("LKH-style gap over HK bound %.2f%% too large (len %d, HK %d)",
			gap*100, res.Length, hk.Bound)
	}
}

func TestSolveRespectsDeadline(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 500, 9)
	start := time.Now()
	p := DefaultParams()
	p.AscentIterations = 5
	Solve(in, p, 3, time.Now().Add(300*time.Millisecond), 0)
	// Candidate generation is not interruptible; allow generous slack.
	if time.Since(start) > 15*time.Second {
		t.Fatalf("deadline ignored: %v", time.Since(start))
	}
}

func TestSolveZeroTrials(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 30, 7)
	p := DefaultParams()
	p.Trials = 1
	res := Solve(in, p, 1, time.Time{}, 0)
	if err := res.Tour.Validate(30); err != nil {
		t.Fatal(err)
	}
	if res.Trials != 1 {
		t.Fatalf("trials = %d", res.Trials)
	}
}

func TestSolveTargetShortCircuits(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 30, 9)
	// An absurdly generous target: the first descent already meets it, so
	// no trials should run.
	res := Solve(in, DefaultParams(), 1, time.Time{}, 1<<60)
	if res.Trials != 0 {
		t.Fatalf("ran %d trials despite met target", res.Trials)
	}
}
