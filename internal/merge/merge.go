package merge

import (
	"context"
	"time"

	"distclk/internal/clk"
	"distclk/internal/construct"
	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// Params tunes the merger.
type Params struct {
	// Tours is the number of independent CLK runs (Cook & Seymour use 10).
	Tours int
	// KicksPerTour budgets each base run.
	KicksPerTour int64
	// CLK configures the base runs.
	CLK clk.Params
	// DeepLK configures the restricted merge search.
	DeepLK lk.Params
	// MergeKicks is the number of perturbation trials inside the union
	// graph after the first restricted descent.
	MergeKicks int
}

// DefaultParams follows the paper's setup (10 CLK tours).
func DefaultParams() Params {
	return Params{
		Tours:        10,
		KicksPerTour: 0, // derived from n at Solve time
		CLK:          clk.DefaultParams(),
		DeepLK: lk.Params{
			MaxDepth: 60,
			Breadth:  []int{10, 6, 4, 2},
		},
		MergeKicks: 200,
	}
}

// Result reports a Solve run.
type Result struct {
	Tour   tsp.Tour
	Length int64
	// BaseBest is the best length among the input tours (improvement over
	// it is the value added by merging).
	BaseBest int64
	// UnionEdges is the union graph size.
	UnionEdges int
	Elapsed    time.Duration
}

// UnionGraph builds per-city adjacency over the union of the tours' edges.
// It delegates to neighbor.UnionOfTours, which also feeds the in-node
// elite fusion of clk.Group; adjacency lists come back sorted ascending.
func UnionGraph(n int, tours []tsp.Tour) [][]int32 {
	return neighbor.UnionOfTours(n, tours)
}

// CountEdges tallies distinct undirected edges in an adjacency structure.
func CountEdges(adj [][]int32) int {
	total := 0
	for i, a := range adj {
		for _, j := range a {
			if int32(i) < j {
				total++
			}
		}
	}
	return total
}

// Solve runs tour merging: r independent CLK runs, then restricted LK over
// the union graph starting from the best base tour.
func Solve(in *tsp.Instance, p Params, seed int64, deadline time.Time, target int64) Result {
	if p.Tours == 0 {
		p = DefaultParams()
	}
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	n := in.N()
	kicks := p.KicksPerTour
	if kicks <= 0 {
		kicks = int64(n)
	}

	tours := make([]tsp.Tour, 0, p.Tours)
	var bestBase tsp.Tour
	var bestBaseLen int64
	for r := 0; r < p.Tours; r++ {
		s := clk.New(in, p.CLK, seed+int64(r)*7919)
		res := s.Run(ctx, clk.Budget{MaxKicks: kicks, Target: target})
		tours = append(tours, res.Tour)
		if bestBase == nil || res.Length < bestBaseLen {
			bestBase, bestBaseLen = res.Tour, res.Length
		}
		if target > 0 && bestBaseLen <= target {
			break // a base run already hit the optimum
		}
	}

	adj := UnionGraph(n, tours)
	cand, err := neighbor.FromEdges(in, adj)
	if err != nil {
		// Union graphs of valid tours cannot produce bad edges; return the
		// best base tour rather than merge over corrupt candidates.
		return Result{Tour: bestBase, Length: bestBaseLen, BaseBest: bestBaseLen}
	}

	// Perturbation trials confined to the union graph, from the best base
	// tour. The solver's own greedy start is discarded by SetTour.
	ms := clk.New(in, clk.Params{
		Kick:      clk.KickRandom,
		Neighbors: cand,
		LK:        p.DeepLK,
		Construct: construct.Greedy,
	}, seed+13)
	ms.SetTour(bestBase)
	ms.OptimizeCurrent()
	tour, length := ms.Best()
	if p.MergeKicks > 0 { // a zero kick budget would leave Run unbounded
		res := ms.Run(ctx, clk.Budget{MaxKicks: int64(p.MergeKicks), Target: target})
		tour, length = res.Tour, res.Length
	}

	return Result{
		Tour:       tour,
		Length:     length,
		BaseBest:   bestBaseLen,
		UnionEdges: CountEdges(adj),
		Elapsed:    time.Since(start),
	}
}
