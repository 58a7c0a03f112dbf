package distclk

// Benchmarks regenerating every table and figure of the paper's evaluation
// (delegating to the internal/bench harness at smoke scale — run
// cmd/experiments for larger, paper-shaped runs), micro-benchmarks of the
// hot paths, and ablation benchmarks for the design choices called out in
// DESIGN.md §4. Custom metrics: "gap%" is the final distance to the
// Held-Karp bound or run-best reference; lower is better.

import (
	"context"
	"io"
	"strconv"
	"testing"
	"time"

	"distclk/internal/bench"
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

// smokeOptions keeps each experiment benchmark to a few seconds.
func smokeOptions() bench.Options {
	return bench.Options{
		Runs:         1,
		CLKBudget:    time.Second,
		Nodes:        4,
		Seed:         1,
		SizeScale:    16,
		HKIters:      25,
		MaxInstances: 2,
		CV:           4,
		CR:           16,
		KicksPerCall: 10,
	}
}

func benchExperiment(b *testing.B, run func(*bench.Bench, io.Writer) error) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := bench.New(smokeOptions())
		if err := run(h, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the speed-up table (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Table1(w) })
}

// BenchmarkTable2 regenerates the baseline comparison (paper Table 2).
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Table2(w) })
}

// BenchmarkTable3 regenerates the success-count table (paper Table 3).
func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Table3(w) })
}

// BenchmarkTable4 regenerates the CLK quality table (paper Table 4).
func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Table4(w) })
}

// BenchmarkTable5 regenerates the DistCLK quality table (paper Table 5).
func BenchmarkTable5(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Table5(w) })
}

// BenchmarkFigure2 regenerates the kicking-strategy convergence plots.
func BenchmarkFigure2(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Figure2(w) })
}

// BenchmarkFigure3 regenerates the parallelization plots.
func BenchmarkFigure3(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Figure3(w) })
}

// BenchmarkMessages regenerates the §4 communication statistics.
func BenchmarkMessages(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Messages(w) })
}

// BenchmarkVariator regenerates the §4.2.1 perturbation-strength analysis.
func BenchmarkVariator(b *testing.B) {
	benchExperiment(b, func(h *bench.Bench, w io.Writer) error { return h.Variator(w) })
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths.

func microInstance(n int) *tsp.Instance {
	return tsp.Generate(tsp.FamilyUniform, n, 42)
}

// BenchmarkLKFullPass measures a full Lin-Kernighan descent from a greedy
// tour on 1000 cities.
func BenchmarkLKFullPass(b *testing.B) {
	in := microInstance(1000)
	nbr := neighbor.Build(in, 10)
	start := construct.Build(construct.Greedy, in, nbr, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := lk.NewOptimizer(in, nbr, start, lk.DefaultParams())
		o.OptimizeAll(nil)
	}
}

// BenchmarkCLKKick measures one kick + local re-optimization.
func BenchmarkCLKKick(b *testing.B) {
	in := microInstance(1000)
	s := clk.New(in, clk.DefaultParams(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.KickOnce()
	}
}

// kickLoop is the shared body of the perf-trajectory benchmarks tracked in
// BENCH_*.json: a fixed, seeded warm-up phase whose incumbent length is
// reported as "tourlen" (bit-identical run over run and commit over
// commit — the guard that a speed-up did not change the search), then a
// timed steady-state phase reporting throughput as "kicks/sec".
func kickLoop(b *testing.B, family tsp.Family, n int, fixedKicks int) {
	in := tsp.Generate(family, n, 42)
	s := clk.New(in, clk.DefaultParams(), 1)
	for i := 0; i < fixedKicks; i++ {
		s.KickOnce()
	}
	lenAtFixed := s.BestLength() // deterministic: seed 1, fixedKicks kicks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.KickOnce()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "kicks/sec")
	b.ReportMetric(float64(lenAtFixed), "tourlen")
}

// BenchmarkOptimizeAfterKick is the acceptance benchmark for the flattened
// LK hot path: steady-state kicks on E1k (uniform 1000 cities). It must
// run at 0 allocs/op — every scratch buffer is pre-sized at construction.
func BenchmarkOptimizeAfterKick(b *testing.B) {
	kickLoop(b, tsp.FamilyUniform, 1000, 200)
}

// BenchmarkCLKKicksPerSec tracks full-solver kick throughput on the two
// synthetic testbed shapes used for the perf trajectory: E1k (uniform 1k,
// the DIMACS E-family stand-in) and C3k (clustered 3k, the C-family).
func BenchmarkCLKKicksPerSec(b *testing.B) {
	cases := []struct {
		name   string
		family tsp.Family
		n      int
	}{
		{"E1k", tsp.FamilyUniform, 1000},
		{"C3k", tsp.FamilyClustered, 3000},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			kickLoop(b, tc.family, tc.n, 50)
		})
	}
}

// BenchmarkParallelCLK tracks multi-worker kick throughput of the in-node
// parallel group on the E-family stand-ins at 1/2/4/8 workers. MaxKicks is
// the group total, so ns/op stays per-kick and "kicks/sec" is aggregate
// throughput — near-linear scaling in workers is the design target on
// multi-core hardware (a single-core machine shows flat scaling; the
// recorded snapshot's "cpu" field says which one produced it). "tourlen"
// is the final length; deterministic only for w1.
func BenchmarkParallelCLK(b *testing.B) {
	cases := []struct {
		name   string
		family tsp.Family
		n      int
	}{
		{"E1k", tsp.FamilyUniform, 1000},
		{"E10k", tsp.FamilyUniform, 10000},
	}
	for _, tc := range cases {
		in := tsp.Generate(tc.family, tc.n, 42)
		nbr := neighbor.Build(in, 10)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(tc.name+"/w"+itoa(workers), func(b *testing.B) {
				p := clk.DefaultParams()
				p.Neighbors = nbr
				g := clk.NewGroup(context.Background(), in, p, clk.GroupParams{Workers: workers}, 1)
				b.ReportAllocs()
				b.ResetTimer()
				res := g.Run(context.Background(), clk.Budget{MaxKicks: int64(b.N)})
				b.StopTimer()
				b.ReportMetric(float64(res.Kicks)/b.Elapsed().Seconds(), "kicks/sec")
				b.ReportMetric(float64(res.Length), "tourlen")
			})
		}
	}
}

// BenchmarkCandidateStrategies tracks the candidate-strategy x gain-rule
// cross-product on three testbed families: steady-state kick throughput
// ("kicks/sec"), the deterministic warm-up incumbent ("tourlen", the guard
// that a faster configuration did not silently trade away quality), and
// the one-off candidate construction cost ("build_ms", measured once per
// strategy outside the timed loop). The knn/strict rows reproduce the
// BenchmarkCLKKicksPerSec configuration, anchoring comparisons across
// BENCH_*.json snapshots.
func BenchmarkCandidateStrategies(b *testing.B) {
	families := []struct {
		name   string
		family tsp.Family
		n      int
	}{
		{"E1k", tsp.FamilyUniform, 1000},
		{"C1k", tsp.FamilyClustered, 1000},
		{"D1k", tsp.FamilyDrill, 1000},
		{"E5k", tsp.FamilyUniform, 5000},
	}
	gains := []struct {
		name  string
		relax int
	}{
		{"strict", 0},
		{"relaxed", 3},
	}
	for _, fc := range families {
		in := tsp.Generate(fc.family, fc.n, 42)
		for _, strat := range neighbor.Strategies() {
			buildStart := time.Now()
			nbr, err := strat.Build(nil, in, 10)
			buildMS := float64(time.Since(buildStart).Microseconds()) / 1000
			if err != nil {
				b.Fatal(err)
			}
			for _, gain := range gains {
				b.Run(fc.name+"/"+strat.Name+"/"+gain.name, func(b *testing.B) {
					p := clk.DefaultParams()
					p.Neighbors = nbr
					p.LK.RelaxDepth = gain.relax
					s := clk.New(in, p, 1)
					for i := 0; i < 50; i++ {
						s.KickOnce()
					}
					lenAtFixed := s.BestLength() // deterministic: seed 1, 50 kicks
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.KickOnce()
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "kicks/sec")
					b.ReportMetric(float64(lenAtFixed), "tourlen")
					b.ReportMetric(buildMS, "build_ms")
				})
			}
		}
	}
}

// BenchmarkFlip measures ArrayTour segment reversal.
func BenchmarkFlip(b *testing.B) {
	tour := lk.NewArrayTour(tsp.IdentityTour(10000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := int32(i % 10000)
		c := int32((i*7 + 13) % 10000)
		tour.Flip(a, c)
	}
}

// BenchmarkTourRepresentations measures array-tour flips across instance
// sizes: the shorter-side reversal bounds a flip by n/2 cities, and its
// contiguous memory keeps that cheap at testbed scale.
func BenchmarkTourRepresentations(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		perm := tsp.IdentityTour(n)
		b.Run("array/n="+itoa(n), func(b *testing.B) {
			at := lk.NewArrayTour(perm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at.Flip(int32(i%n), int32((i*37+11)%n))
			}
		})
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// BenchmarkDoubleBridge measures the 4-exchange kick move.
func BenchmarkDoubleBridge(b *testing.B) {
	in := microInstance(2000)
	tour := lk.NewArrayTour(tsp.IdentityTour(2000))
	dist := in.DistFunc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cities := [4]int32{
			int32(i % 2000), int32((i + 500) % 2000),
			int32((i + 1000) % 2000), int32((i + 1500) % 2000),
		}
		clk.DoubleBridge(tour, cities, dist)
	}
}

// BenchmarkNeighborBuild measures k-d-tree candidate list construction.
func BenchmarkNeighborBuild(b *testing.B) {
	in := microInstance(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		neighbor.Build(in, 10)
	}
}

// BenchmarkConstruction compares the construction heuristics.
func BenchmarkConstruction(b *testing.B) {
	in := microInstance(2000)
	nbr := neighbor.Build(in, 8)
	for _, m := range []construct.Method{
		construct.QuickBoruvka, construct.Greedy,
		construct.NearestNeighbor, construct.SpaceFilling,
	} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var length int64
			for i := 0; i < b.N; i++ {
				length = construct.Build(m, in, nbr, nil).Length(in)
			}
			b.ReportMetric(float64(length), "tourlen")
		})
	}
}

// BenchmarkHKIteration measures one 1-tree computation (the ascent's inner
// loop) on 1000 cities.
func BenchmarkHKIteration(b *testing.B) {
	in := microInstance(1000)
	pi := make([]float64, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heldkarp.MinOneTree(in, pi)
	}
}

// BenchmarkTourCodec measures the wire encoding of a 10k-city tour.
func BenchmarkTourCodec(b *testing.B) {
	in := microInstance(120)
	_ = in
	tour := tsp.IdentityTour(10000)
	nw := dist.NewChanNetwork(2, topology.Complete)
	c0, c1 := nw.Comm(0), nw.Comm(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0.Broadcast(tour, int64(i))
		c1.Drain()
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §4). Each reports the achieved gap to the
// HK bound as "gap%" after a fixed small budget — lower is better.

func ablationGap(b *testing.B, run func(in *tsp.Instance) int64) {
	in := tsp.Generate(tsp.FamilyDrill, 500, 7)
	hk := heldkarp.LowerBound(in, heldkarp.Options{Iterations: 40})
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		length := run(in)
		gap = float64(length-hk.Bound) / float64(hk.Bound) * 100
	}
	b.ReportMetric(gap, "gap%")
}

// BenchmarkKickStrategies compares the four kicking strategies on a
// drilling instance (the class where the paper observes the strongest
// differences).
func BenchmarkKickStrategies(b *testing.B) {
	for _, kick := range clk.AllKickStrategies {
		b.Run(kick.String(), func(b *testing.B) {
			ablationGap(b, func(in *tsp.Instance) int64 {
				p := clk.DefaultParams()
				p.Kick = kick
				s := clk.New(in, p, 11)
				return s.Run(context.Background(), clk.Budget{MaxKicks: 400}).Length
			})
		})
	}
}

// BenchmarkAblationVariator compares the paper's variable-strength
// perturbation against plain fixed-strength kicks in the EA.
func BenchmarkAblationVariator(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "variable-strength"
		if disabled {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			ablationGap(b, func(in *tsp.Instance) int64 {
				cfg := core.DefaultConfig()
				cfg.DisablePerturbation = disabled
				cfg.KicksPerCall = 30
				node := core.NewNode(0, in, cfg, core.NopComm{}, 13)
				stats := node.Run(context.Background(), core.Budget{MaxIterations: 12})
				return stats.BestLength
			})
		})
	}
}

// BenchmarkAblationNoComm isolates cooperation: identical clusters with
// broadcasts delivered vs suppressed.
func BenchmarkAblationNoComm(b *testing.B) {
	run := func(topo topology.Kind, nodes int) int64 {
		in := tsp.Generate(tsp.FamilyDrill, 500, 7)
		cfg := core.DefaultConfig()
		cfg.KicksPerCall = 25
		res := dist.RunCluster(context.Background(), in, dist.ClusterConfig{
			Nodes:  nodes,
			Topo:   topo,
			EA:     cfg,
			Budget: core.Budget{MaxIterations: 6},
			Seed:   17,
		})
		return res.BestLength
	}
	b.Run("cooperating", func(b *testing.B) {
		ablationGap(b, func(in *tsp.Instance) int64 { return run(topology.Hypercube, 4) })
	})
	b.Run("isolated", func(b *testing.B) {
		// A ring of 1-node networks: same compute, no exchange. Emulated by
		// independent single nodes keeping the best.
		ablationGap(b, func(in *tsp.Instance) int64 {
			best := int64(1 << 62)
			for i := 0; i < 4; i++ {
				cfg := core.DefaultConfig()
				cfg.KicksPerCall = 25
				node := core.NewNode(i, in, cfg, core.NopComm{}, 17+int64(i)*1_000_000_007)
				if s := node.Run(context.Background(), core.Budget{MaxIterations: 6}); s.BestLength < best {
					best = s.BestLength
				}
			}
			return best
		})
	})
}

// BenchmarkAblationTopology compares overlays at equal node count.
func BenchmarkAblationTopology(b *testing.B) {
	for _, topo := range []topology.Kind{topology.Hypercube, topology.Ring, topology.Complete} {
		b.Run(topo.String(), func(b *testing.B) {
			ablationGap(b, func(in *tsp.Instance) int64 {
				cfg := core.DefaultConfig()
				cfg.KicksPerCall = 25
				res := dist.RunCluster(context.Background(), in, dist.ClusterConfig{
					Nodes:  4,
					Topo:   topo,
					EA:     cfg,
					Budget: core.Budget{MaxIterations: 6},
					Seed:   19,
				})
				return res.BestLength
			})
		})
	}
}

// BenchmarkAblationNeighbors varies the candidate list size k.
func BenchmarkAblationNeighbors(b *testing.B) {
	for _, k := range []int{5, 8, 12, 16} {
		b.Run(string(rune('0'+k/10))+string(rune('0'+k%10)), func(b *testing.B) {
			ablationGap(b, func(in *tsp.Instance) int64 {
				p := clk.DefaultParams()
				p.NeighborK = k
				s := clk.New(in, p, 23)
				return s.Run(context.Background(), clk.Budget{MaxKicks: 300}).Length
			})
		})
	}
}
