package clk

import (
	"testing"

	"distclk/internal/tsp"
)

// TestKickLoopZeroAlloc pins the zero-allocation contract of the
// steady-state kick→optimize loop: after warm-up, KickOnce must not
// allocate under any of the four kicking strategies. Every scratch buffer
// (optimizer queue, chain paths, double-bridge segment buffer, kick city
// selection) is pre-sized at construction, so an allocation here means a
// hot-path regression.
func TestKickLoopZeroAlloc(t *testing.T) {
	for _, kick := range AllKickStrategies {
		t.Run(kick.String(), func(t *testing.T) {
			in := tsp.Generate(tsp.FamilyUniform, 400, 3)
			p := DefaultParams()
			p.Kick = kick
			s := New(in, p, 5)
			for i := 0; i < 30; i++ {
				s.KickOnce() // reach steady state
			}
			if allocs := testing.AllocsPerRun(200, func() { s.KickOnce() }); allocs != 0 {
				t.Errorf("KickOnce allocates %.1f objects per kick in steady state, want 0", allocs)
			}
		})
	}
}

// TestKickLoopZeroAllocPerCandidateStrategy extends the zero-allocation
// contract across candidate-set strategies: whichever builder produced the
// CSR lists (and with the relaxed gain rule on), the steady-state kick
// loop must not allocate — the strategies differ only in construction,
// never in the hot path.
func TestKickLoopZeroAllocPerCandidateStrategy(t *testing.T) {
	for _, cand := range []string{"knn", "quadrant", "alpha", "delaunay"} {
		t.Run(cand, func(t *testing.T) {
			in := tsp.Generate(tsp.FamilyDrill, 400, 3)
			p := DefaultParams()
			p.Candidates = cand
			p.LK.RelaxDepth = 3
			s := New(in, p, 5)
			for i := 0; i < 30; i++ {
				s.KickOnce() // reach steady state
			}
			if allocs := testing.AllocsPerRun(200, func() { s.KickOnce() }); allocs != 0 {
				t.Errorf("KickOnce allocates %.1f objects per kick with %s candidates, want 0", allocs, cand)
			}
		})
	}
}

// TestKickOnceMatchesSeededBaseline guards reproducibility: identical
// seeds must give identical kick sequences and incumbent lengths run over
// run, which the root kick benchmarks rely on: their "tourlen" metric
// must be comparable commit over commit.
func TestKickOnceMatchesSeededBaseline(t *testing.T) {
	run := func() []int64 {
		in := tsp.Generate(tsp.FamilyDrill, 300, 11)
		s := New(in, DefaultParams(), 17)
		lens := []int64{s.BestLength()}
		for i := 0; i < 40; i++ {
			s.KickOnce()
			lens = append(lens, s.BestLength())
		}
		return lens
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kick %d: lengths diverge (%d vs %d) for identical seeds", i, a[i], b[i])
		}
	}
}
