package clk

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"distclk/internal/exact"
	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

func TestParseKick(t *testing.T) {
	for _, k := range AllKickStrategies {
		got, err := ParseKick(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKick(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKick("bogus"); err == nil {
		t.Error("ParseKick accepted bogus strategy")
	}
}

func TestDoubleBridgeExchangesFourEdges(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 40, 1)
	dist := in.DistFunc()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		perm := tsp.IdentityTour(40)
		rng.Shuffle(40, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		at := lk.NewArrayTour(perm)
		before := perm.Length(in)
		beforeEdges := tourEdges(at)

		var cities [4]int32
		seen := map[int32]bool{}
		for i := 0; i < 4; {
			c := int32(rng.Intn(40))
			if !seen[c] {
				seen[c] = true
				cities[i] = c
				i++
			}
		}
		delta, _ := DoubleBridge(at, cities, dist)
		got := at.Tour()
		if err := got.Validate(40); err != nil {
			t.Fatalf("double bridge broke tour: %v", err)
		}
		if got.Length(in) != before+delta {
			t.Fatalf("delta %d inconsistent: %d -> %d", delta, before, got.Length(in))
		}
		afterEdges := tourEdges(at)
		removed := 0
		for e := range beforeEdges {
			if !afterEdges[e] {
				removed++
			}
		}
		added := 0
		for e := range afterEdges {
			if !beforeEdges[e] {
				added++
			}
		}
		// The Martin–Otto–Felten double bridge exchanges exactly 4 edges
		// whenever the 4 cut positions are pairwise non-adjacent; with
		// adjacency some exchanged edges coincide, but never fewer than 2.
		if removed != added {
			t.Fatalf("removed %d != added %d", removed, added)
		}
		if removed > 4 || removed < 2 {
			t.Fatalf("double bridge exchanged %d edges, want 2..4", removed)
		}
	}
}

func TestDoubleBridgeWellSeparatedIsFourExchange(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 20, 3)
	at := lk.NewArrayTour(tsp.IdentityTour(20))
	before := tourEdges(at)
	_, _ = DoubleBridge(at, [4]int32{2, 7, 12, 17}, in.DistFunc())
	after := tourEdges(at)
	removed := 0
	for e := range before {
		if !after[e] {
			removed++
		}
	}
	if removed != 4 {
		t.Fatalf("well-separated double bridge exchanged %d edges, want exactly 4", removed)
	}
	// Segment order must become A D C B with all segments forward:
	// cuts after positions 2,7,12,17 -> A=18..2, B=3..7, C=8..12, D=13..17.
	want := tsp.Tour{18, 19, 0, 1, 2, 13, 14, 15, 16, 17, 8, 9, 10, 11, 12, 3, 4, 5, 6, 7}
	if !at.Tour().SameCycle(want) {
		t.Fatalf("double bridge produced %v, want cycle %v", at.Tour(), want)
	}
}

func tourEdges(at *lk.ArrayTour) map[[2]int32]bool {
	set := make(map[[2]int32]bool)
	n := int32(at.N())
	for i := int32(0); i < n; i++ {
		a := at.At(i)
		b := at.At((i + 1) % n)
		if a > b {
			a, b = b, a
		}
		set[[2]int32{a, b}] = true
	}
	return set
}

func TestKickStrategiesSelectDistinctCities(t *testing.T) {
	in := tsp.Generate(tsp.FamilyClustered, 300, 5)
	nbr := neighbor.Build(in, 10)
	for _, strat := range AllKickStrategies {
		k := kicker{
			strategy: strat,
			nbr:      nbr,
			rng:      rand.New(rand.NewSource(7)),
			dist:     in.DistFunc(),
		}
		for trial := 0; trial < 50; trial++ {
			cs := k.selectCities(300)
			seen := map[int32]bool{}
			for _, c := range cs {
				if c < 0 || c >= 300 {
					t.Fatalf("%v: city %d out of range", strat, c)
				}
				if seen[c] {
					t.Fatalf("%v: duplicate city %d in %v", strat, c, cs)
				}
				seen[c] = true
			}
		}
	}
}

func TestGeometricKickIsLocal(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 1000, 11)
	nbr := neighbor.Build(in, 10)
	k := kicker{
		strategy: KickGeometric,
		nbr:      nbr,
		rng:      rand.New(rand.NewSource(13)),
		dist:     in.DistFunc(),
	}
	dist := in.DistFunc()
	var kickSpan, randSpan float64
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		cs := k.selectCities(1000)
		for _, c := range cs[1:] {
			kickSpan += float64(dist(cs[0], c))
		}
		v := int32(rng.Intn(1000))
		for i := 0; i < 3; i++ {
			randSpan += float64(dist(v, int32(rng.Intn(1000))))
		}
	}
	if kickSpan*5 > randSpan {
		t.Fatalf("geometric kick not local: kick span %.0f vs random span %.0f", kickSpan, randSpan)
	}
}

func TestCLKSolvesSmallToOptimum(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 16, 23)
	_, optLen, err := exact.HeldKarp(in)
	if err != nil {
		t.Fatal(err)
	}
	s := New(in, DefaultParams(), 1)
	res := s.Run(context.Background(), Budget{MaxKicks: 300, Target: optLen})
	if res.Length != optLen {
		t.Fatalf("CLK reached %d, optimum is %d", res.Length, optLen)
	}
	if err := res.Tour.Validate(16); err != nil {
		t.Fatal(err)
	}
}

func TestCLKMonotoneIncumbent(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 200, 29)
	s := New(in, DefaultParams(), 2)
	prev := s.BestLength()
	for i := 0; i < 60; i++ {
		s.KickOnce()
		if s.BestLength() > prev {
			t.Fatalf("incumbent worsened %d -> %d at kick %d", prev, s.BestLength(), i)
		}
		prev = s.BestLength()
	}
	tour, l := s.Best()
	if err := tour.Validate(200); err != nil {
		t.Fatal(err)
	}
	if tour.Length(in) != l {
		t.Fatalf("incumbent length mismatch: cached %d, actual %d", l, tour.Length(in))
	}
}

func TestCLKKickStrategiesAllRun(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 150, 31)
	for _, strat := range AllKickStrategies {
		p := DefaultParams()
		p.Kick = strat
		s := New(in, p, 3)
		res := s.Run(context.Background(), Budget{MaxKicks: 40})
		if err := res.Tour.Validate(150); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Kicks != 40 {
			t.Fatalf("%v: ran %d kicks, want 40", strat, res.Kicks)
		}
	}
}

func TestCLKDeadline(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 300, 37)
	s := New(in, DefaultParams(), 4)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Run(ctx, Budget{})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline overrun: %v", elapsed)
	}
}

func TestCLKCancellation(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 500, 53)
	s := New(in, DefaultParams(), 8)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := s.Run(ctx, Budget{})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation ignored: ran %v", elapsed)
	}
	if err := res.Tour.Validate(500); err != nil {
		t.Fatalf("cancelled run returned invalid tour: %v", err)
	}
}

// TestPerturbAndRunPerturbed drives the distributed EA's variation step:
// Perturb, then one RunPerturbed call.
func TestPerturbAndRunPerturbed(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 200, 41)
	s := New(in, DefaultParams(), 5)
	base := s.BestLength()
	s.Perturb(3)
	res := s.RunPerturbed(context.Background(), Budget{MaxKicks: 10})
	if res.Kicks != 10 {
		t.Fatalf("call made %d kicks, want 10", res.Kicks)
	}
	if err := res.Tour.Validate(200); err != nil {
		t.Fatal(err)
	}
	// After perturb+reopt, the result should be within a few percent of the
	// pre-perturbation incumbent (perturbation must not destroy the tour).
	if float64(res.Length) > float64(base)*1.10 {
		t.Fatalf("perturbed result %d more than 10%% worse than base %d", res.Length, base)
	}
}

func TestSetTourAdoptsExternalTour(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 100, 43)
	a := New(in, DefaultParams(), 6)
	b := New(in, DefaultParams(), 7)
	ta, la := a.Best()
	b.SetTour(ta)
	if b.BestLength() != la {
		t.Fatalf("adopted tour length %d, want %d", b.BestLength(), la)
	}
	res := b.Run(context.Background(), Budget{MaxKicks: 5})
	if res.Length > la {
		t.Fatalf("run from adopted tour worsened incumbent %d -> %d", la, res.Length)
	}
}
