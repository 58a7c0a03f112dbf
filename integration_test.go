package distclk

// End-to-end integration tests spanning every layer: generation ->
// candidate lists -> construction -> LK -> CLK -> distributed EA
// -> bounds, with invariants validated at each stage.

import (
	"context"
	"testing"
	"time"

	"distclk/internal/clk"
	"distclk/internal/construct"
	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/heldkarp"
	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// TestFullPipeline walks one instance through every stage and checks the
// quality ordering: each stage must not be worse than the one before, and
// the final tour must respect the Held-Karp bound.
func TestFullPipeline(t *testing.T) {
	// Uniform geometry: the Held-Karp bound is within ~1% of the optimum
	// there, so the final gap assertion is meaningful. (On tightly
	// clustered instances the 1-tree relaxation itself is several percent
	// loose — see EXPERIMENTS.md.)
	in := tsp.Generate(tsp.FamilyUniform, 400, 17)
	nbr := neighbor.Build(in, 10)

	// Stage 1: construction.
	tour := construct.Build(construct.QuickBoruvka, in, nbr, nil)
	if err := tour.Validate(400); err != nil {
		t.Fatal(err)
	}
	constructLen := tour.Length(in)

	// Stage 2: LK descent.
	opt := lk.NewOptimizer(in, nbr, tour, lk.DefaultParams())
	opt.OptimizeAll(nil)
	lkLen := opt.Length()
	if lkLen > constructLen {
		t.Fatalf("LK worsened construction: %d -> %d", constructLen, lkLen)
	}

	// Stage 3: CLK chaining from the LK tour.
	solver := clk.New(in, clk.DefaultParams(), 3)
	solver.SetTour(opt.Tour.Tour())
	res := solver.Run(context.Background(), clk.Budget{MaxKicks: 150})
	if res.Length > lkLen {
		t.Fatalf("CLK worsened the LK tour: %d -> %d", lkLen, res.Length)
	}

	// Stage 4: distributed EA seeded independently must land in the same
	// quality region (within 2% of the CLK result).
	ea := core.DefaultConfig()
	ea.CV, ea.CR = 4, 16
	ea.KicksPerCall = 10
	cctx, ccancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer ccancel()
	cres := dist.RunCluster(cctx, in, dist.ClusterConfig{
		Nodes:  4,
		Topo:   topology.Hypercube,
		EA:     ea,
		Budget: core.Budget{MaxIterations: 20},
		Seed:   5,
	})
	if err := cres.BestTour.Validate(400); err != nil {
		t.Fatal(err)
	}
	if float64(cres.BestLength) > float64(res.Length)*1.02 {
		t.Fatalf("distributed result %d far from CLK result %d", cres.BestLength, res.Length)
	}

	// Stage 5: bounds. Everything must respect Held-Karp.
	hk := heldkarp.LowerBound(in, heldkarp.Options{Iterations: 80, UpperBound: res.Length})
	for name, l := range map[string]int64{
		"construct": constructLen,
		"lk":        lkLen,
		"clk":       res.Length,
		"dist":      cres.BestLength,
	} {
		if l < hk.Bound {
			t.Fatalf("%s length %d below the Held-Karp bound %d — a solver or the bound is broken", name, l, hk.Bound)
		}
	}
	// The final tours should be within ~5% of the bound on clustered
	// instances at this effort.
	if float64(res.Length) > float64(hk.Bound)*1.05 {
		t.Errorf("CLK gap over HK bound too large: %d vs %d", res.Length, hk.Bound)
	}
}

// TestSeedDeterminismCLK: identical seeds must reproduce identical kick
// sequences (the solver is deterministic given seed and budget in kicks).
func TestSeedDeterminismCLK(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 200, 23)
	run := func() int64 {
		s := clk.New(in, clk.DefaultParams(), 77)
		return s.Run(context.Background(), clk.Budget{MaxKicks: 60}).Length
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results: %d vs %d", a, b)
	}
}

// TestAllFamiliesThroughDistributedLoop smoke-tests the distributed loop
// on every instance family.
func TestAllFamiliesThroughDistributedLoop(t *testing.T) {
	for _, fam := range []tsp.Family{
		tsp.FamilyUniform, tsp.FamilyClustered, tsp.FamilyDrill,
		tsp.FamilyGrid, tsp.FamilyNational,
	} {
		in := tsp.Generate(fam, 150, 29)
		ea := core.DefaultConfig()
		ea.KicksPerCall = 5
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res := dist.RunCluster(ctx, in, dist.ClusterConfig{
			Nodes:  2,
			Topo:   topology.Ring,
			EA:     ea,
			Budget: core.Budget{MaxIterations: 4},
			Seed:   7,
		})
		cancel()
		if err := res.BestTour.Validate(150); err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		if res.BestTour.Length(in) != res.BestLength {
			t.Fatalf("%v: length mismatch", fam)
		}
	}
}
