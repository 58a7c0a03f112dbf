package multilevel

import (
	"context"
	"math/rand"
	"time"

	"distclk/internal/clk"
	"distclk/internal/geom"
	"distclk/internal/tsp"
)

// Params tunes the multilevel scheme.
type Params struct {
	// CoarsestSize stops coarsening (default 16 cities).
	CoarsestSize int
	// KicksFactor scales per-level CLK kicks: kicks = KicksFactor * n_level.
	// Walshaw's MLC(N/10)LK corresponds to 0.1; MLC(N)LK to 1.0.
	KicksFactor float64
	// CLK configures the per-level refinement solver.
	CLK clk.Params
}

// DefaultParams matches Walshaw's faster MLC(N/10)LK configuration.
func DefaultParams() Params {
	return Params{
		CoarsestSize: 16,
		KicksFactor:  0.1,
		CLK:          clk.DefaultParams(),
	}
}

// Result reports a Solve run.
type Result struct {
	Tour    tsp.Tour
	Length  int64
	Levels  int
	Elapsed time.Duration
}

// level is one coarsening step: a smaller instance plus the mapping from
// its cities to the children in the finer level below.
type level struct {
	inst     *tsp.Instance
	children [][]int32 // per coarse city: 1 or 2 finer-level cities
}

// coarsen builds the level hierarchy. levels[0] is the original instance.
func coarsen(in *tsp.Instance, coarsest int, rng *rand.Rand) []level {
	levels := []level{{inst: in}}
	cur := in
	for cur.N() > coarsest {
		next, ok := coarsenOnce(cur, rng)
		if !ok {
			break // no progress (e.g. pathological geometry)
		}
		levels = append(levels, next)
		cur = next.inst
	}
	return levels
}

// coarsenOnce matches each city with its nearest unmatched neighbour and
// merges pairs into their midpoint.
func coarsenOnce(in *tsp.Instance, rng *rand.Rand) (level, bool) {
	n := in.N()
	tree := in.KDTree()
	matched := make([]int32, n)
	for i := range matched {
		matched[i] = -1
	}
	order := rng.Perm(n)
	var children [][]int32
	var pts []geom.Point
	for _, ci := range order {
		c := int32(ci)
		if matched[c] >= 0 {
			continue
		}
		// Nearest unmatched neighbour among progressively more candidates.
		var mate int32 = -1
		for k := 4; mate < 0 && k <= 64; k *= 2 {
			kk := k
			if kk > n-1 {
				kk = n - 1
			}
			for _, o := range tree.KNearest(in.Pts[c], kk, int(c)) {
				if matched[o] < 0 {
					mate = o
					break
				}
			}
			if kk == n-1 {
				break
			}
		}
		if mate < 0 {
			matched[c] = int32(len(children))
			children = append(children, []int32{c})
			pts = append(pts, in.Pts[c])
			continue
		}
		id := int32(len(children))
		matched[c], matched[mate] = id, id
		children = append(children, []int32{c, mate})
		pts = append(pts, geom.Point{
			X: (in.Pts[c].X + in.Pts[mate].X) / 2,
			Y: (in.Pts[c].Y + in.Pts[mate].Y) / 2,
		})
	}
	if len(pts) >= n {
		return level{}, false
	}
	coarse := tsp.New(in.Name+"*", in.Metric, pts)
	return level{inst: coarse, children: children}, true
}

// expand lifts a tour on the coarse level to the finer level: matched pairs
// are inserted adjacently in whichever order joins their tour neighbours
// more cheaply.
func expand(lv level, coarseTour tsp.Tour, fine *tsp.Instance) tsp.Tour {
	dist := fine.DistFunc()
	n := len(coarseTour)
	out := make(tsp.Tour, 0, fine.N())
	for i, cc := range coarseTour {
		kids := lv.children[cc]
		if len(kids) == 1 {
			out = append(out, kids[0])
			continue
		}
		a, b := kids[0], kids[1]
		// Predecessor is the last emitted city (or the representative of
		// the previous coarse city); successor is the first child of the
		// next coarse city — approximate with its first child.
		var prev, next int32 = -1, -1
		if len(out) > 0 {
			prev = out[len(out)-1]
		} else {
			prevKids := lv.children[coarseTour[n-1]]
			prev = prevKids[0]
		}
		nextKids := lv.children[coarseTour[(i+1)%n]]
		next = nextKids[0]
		costAB := dist(prev, a) + dist(b, next)
		costBA := dist(prev, b) + dist(a, next)
		if costBA < costAB {
			a, b = b, a
		}
		out = append(out, a, b)
	}
	return out
}

// Solve runs the multilevel scheme. deadline (zero disables) and target
// (0 disables) bound the per-level refinement.
func Solve(in *tsp.Instance, p Params, seed int64, deadline time.Time, target int64) Result {
	if p.CoarsestSize == 0 {
		p = DefaultParams()
	}
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	levels := coarsen(in, p.CoarsestSize, rng)

	// Solve the coarsest level from scratch.
	top := levels[len(levels)-1].inst
	solver := clk.New(top, p.CLK, seed)
	res := solver.Run(ctx, clk.Budget{
		MaxKicks: int64(float64(top.N())*p.KicksFactor) + 50,
	})
	tour := res.Tour

	// Uncoarsen with per-level refinement.
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].inst
		tour = expand(levels[li], tour, fine)
		refiner := clk.New(fine, p.CLK, seed+int64(li))
		refiner.SetTour(tour)
		refiner.OptimizeCurrent()
		kicks := int64(float64(fine.N()) * p.KicksFactor)
		if kicks < 10 {
			kicks = 10
		}
		var tgt int64
		if li == 1 {
			tgt = target // only the original level compares to the target
		}
		rres := refiner.Run(ctx, clk.Budget{MaxKicks: kicks, Target: tgt})
		tour = rres.Tour
	}
	return Result{
		Tour:    tour,
		Length:  tour.Length(in),
		Levels:  len(levels),
		Elapsed: time.Since(start),
	}
}
