package lk

import (
	"math/rand"
	"sort"
	"testing"

	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

func relaxedParams() Params {
	p := DefaultParams()
	p.RelaxDepth = 3
	return p
}

// TestRelaxedGainNeverWorsens: the relaxed rule only widens the *search*;
// acceptance still requires a strictly positive closing gain, so the tour
// length must be non-increasing move by move.
func TestRelaxedGainNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, fam := range []tsp.Family{tsp.FamilyUniform, tsp.FamilyDrill} {
		in := tsp.Generate(fam, 300, 7)
		nbr := neighbor.Build(in, 8)
		start := randomTourOf(in.N(), rng)
		o := NewOptimizer(in, nbr, start, relaxedParams())
		before := o.Length()
		o.OptimizeAll(nil)
		after := o.Length()
		if after > before {
			t.Fatalf("%v: relaxed LK worsened tour: %d -> %d", fam, before, after)
		}
		got := o.Tour.Tour()
		if err := got.Validate(in.N()); err != nil {
			t.Fatalf("%v: invalid tour: %v", fam, err)
		}
		if got.Length(in) != after {
			t.Fatalf("%v: cached length %d, actual %d", fam, after, got.Length(in))
		}
	}
}

// TestRelaxedGainMatchesClassicQuality: on a plateau-heavy drill instance
// the relaxed rule must reach at least the classic rule's quality from the
// same start (it strictly widens the explored neighbourhood; acceptance is
// unchanged, but it can only find more closing moves, not fewer).
func TestRelaxedGainFindsMovesOnPlateaus(t *testing.T) {
	in := tsp.Generate(tsp.FamilyDrill, 400, 3)
	nbr := neighbor.Build(in, 8)
	rng := rand.New(rand.NewSource(9))
	start := randomTourOf(in.N(), rng)

	classic := NewOptimizer(in, nbr, start, DefaultParams())
	classic.OptimizeAll(nil)
	relaxed := NewOptimizer(in, nbr, start, relaxedParams())
	relaxed.OptimizeAll(nil)

	// Not a strict dominance guarantee per-instance (search order differs
	// once extra candidates survive the break), but the relaxed rule must
	// stay within a hair of classic and actually explore: a large
	// regression means the limit plumbing is wrong.
	if float64(relaxed.Length()) > float64(classic.Length())*1.01 {
		t.Fatalf("relaxed %d much worse than classic %d", relaxed.Length(), classic.Length())
	}
	if relaxed.Moves == 0 {
		t.Fatal("relaxed optimizer accepted no moves")
	}
}

// TestRelaxedGainDeterministic: same seed, same params => byte-identical
// tours, the contract the facade's auto mode relies on.
func TestRelaxedGainDeterministic(t *testing.T) {
	run := func() tsp.Tour {
		in := tsp.Generate(tsp.FamilyDrill, 350, 21)
		nbr := neighbor.Build(in, 8)
		rng := rand.New(rand.NewSource(4))
		o := NewOptimizer(in, nbr, randomTourOf(in.N(), rng), relaxedParams())
		o.OptimizeAll(nil)
		return o.Tour.Tour()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("tour lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tours diverge at position %d for identical seeds", i)
		}
	}
}

// TestRelaxedDiveZeroAlloc pins the hot-path contract for the relaxed
// rule: the per-chain limit is one integer computed in tryChain, so the
// steady-state optimize loop must stay allocation-free exactly like the
// classic rule.
func TestRelaxedDiveZeroAlloc(t *testing.T) {
	in := tsp.Generate(tsp.FamilyDrill, 400, 6)
	nbr := neighbor.Build(in, 8)
	rng := rand.New(rand.NewSource(2))
	o := NewOptimizer(in, nbr, randomTourOf(in.N(), rng), relaxedParams())
	o.OptimizeAll(nil)
	cities := []int32{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(200, func() {
		o.QueueCities(cities)
		o.Optimize(nil)
	}); allocs != 0 {
		t.Errorf("relaxed optimize loop allocates %.1f objects per run, want 0", allocs)
	}
}

// TestRelaxedGainMedianOverSeeds pins the relaxed rule's real property:
// one descent's relaxed/classic ratio spreads widely across seeds (single
// seeds read from about 0.87 to 1.07), so the claim is about the median.
// Over 30 seeded drill-400 descents from random starts, relaxed gain must
// not lose to the classic rule in the median.
func TestRelaxedGainMedianOverSeeds(t *testing.T) {
	const seeds = 30
	ratios := make([]float64, 0, seeds)
	wins := 0
	for seed := int64(1); seed <= seeds; seed++ {
		in := tsp.Generate(tsp.FamilyDrill, 400, seed)
		nbr := neighbor.Build(in, 8)
		start := randomTourOf(in.N(), rand.New(rand.NewSource(seed)))
		classic := NewOptimizer(in, nbr, start, DefaultParams())
		classic.OptimizeAll(nil)
		relaxed := NewOptimizer(in, nbr, start, relaxedParams())
		relaxed.OptimizeAll(nil)
		if relaxed.Length() < classic.Length() {
			wins++
		}
		ratios = append(ratios, float64(relaxed.Length())/float64(classic.Length()))
	}
	sort.Float64s(ratios)
	median := (ratios[seeds/2-1] + ratios[seeds/2]) / 2
	t.Logf("relaxed beat classic on %d/%d seeds; ratio min %.4f q1 %.4f median %.4f q3 %.4f max %.4f",
		wins, seeds, ratios[0], ratios[seeds/4], median, ratios[3*seeds/4], ratios[seeds-1])
	if median > 1.0 {
		t.Fatalf("median relaxed/classic ratio %.4f > 1: relaxed gain loses to classic", median)
	}
}
