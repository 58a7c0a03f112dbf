package lkh

import (
	"context"
	"time"

	"distclk/internal/clk"
	"distclk/internal/construct"
	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// Params tunes the solver.
type Params struct {
	// CandidateK is the alpha-nearness candidate count per city (LKH
	// default 5).
	CandidateK int
	// AscentIterations bounds the Held-Karp ascent that produces the node
	// potentials.
	AscentIterations int
	// LK overrides the deep search schedule.
	LK lk.Params
	// Trials is the number of kick trials; <=0 selects the instance size
	// n, Helsgaun's default.
	Trials int
}

// DefaultParams mirrors LKH defaults where they map onto this engine.
func DefaultParams() Params {
	return Params{
		CandidateK:       5,
		AscentIterations: 60,
		LK: lk.Params{
			MaxDepth: 50,
			Breadth:  []int{8, 5, 3, 2, 2},
		},
	}
}

// Result reports a Solve run.
type Result struct {
	Tour    tsp.Tour
	Length  int64
	Trials  int
	Elapsed time.Duration
}

// Solve runs the LKH-style solver: a chained-LK clk.Solver over alpha
// candidates with the deep LK schedule, a greedy start and uniformly random
// double-bridge trials. deadline (optional, zero to disable) and target
// (optional, 0 to disable) bound the run.
func Solve(in *tsp.Instance, p Params, seed int64, deadline time.Time, target int64) Result {
	if p.CandidateK == 0 {
		p = DefaultParams()
	}
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	cand, err := neighbor.BuildAlpha(in, p.CandidateK, p.AscentIterations)
	if err != nil {
		// Alpha selection cannot fail on a well-formed instance; fall back
		// to plain nearest neighbours so Solve keeps its no-error contract.
		cand = neighbor.Build(in, p.CandidateK)
	}
	trials := p.Trials
	if trials <= 0 {
		trials = in.N()
	}
	s := clk.New(in, clk.Params{
		Kick:      clk.KickRandom,
		Neighbors: cand,
		LK:        p.LK,
		Construct: construct.Greedy,
	}, seed)
	res := s.Run(ctx, clk.Budget{MaxKicks: int64(trials), Target: target})
	return Result{
		Tour:    res.Tour,
		Length:  res.Length,
		Trials:  int(res.Kicks),
		Elapsed: time.Since(start),
	}
}
