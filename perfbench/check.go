package main

import (
	"fmt"
	"math"
)

// The checks recompute everything from the generated points with the
// benchmark's own TSPLIB EUC_2D distance, independent of the program.

func euc2d(a, b point) int64 {
	dx, dy := float64(a.X-b.X), float64(a.Y-b.Y)
	return int64(math.Sqrt(dx*dx+dy*dy) + 0.5)
}

// checkTour reports an error unless tour is a permutation of the cities
// whose recomputed length equals the claimed one.
func checkTour(pts []point, tour []int32, claimed int64) error {
	if len(tour) != len(pts) {
		return fmt.Errorf("tour has %d cities, instance %d", len(tour), len(pts))
	}
	seen := make([]bool, len(pts))
	for _, c := range tour {
		if c < 0 || int(c) >= len(pts) || seen[c] {
			return fmt.Errorf("tour is not a permutation (city %d)", c)
		}
		seen[c] = true
	}
	var l int64
	for i, c := range tour {
		l += euc2d(pts[c], pts[tour[(i+1)%len(tour)]])
	}
	if l != claimed {
		return fmt.Errorf("recomputed length %d, claimed %d", l, claimed)
	}
	return nil
}

// mstLength is the minimum spanning tree weight (dense Prim). It is a
// program-independent lower bound on the optimal tour, used to place the
// quality targets.
func mstLength(pts []point) int64 {
	n := len(pts)
	best := make([]int64, n)
	used := make([]bool, n)
	for i := range best {
		best[i] = math.MaxInt64
	}
	best[0] = 0
	var total int64
	for range pts {
		u := -1
		for i := 0; i < n; i++ {
			if !used[i] && (u < 0 || best[i] < best[u]) {
				u = i
			}
		}
		used[u] = true
		total += best[u]
		for i := 0; i < n; i++ {
			if d := euc2d(pts[u], pts[i]); !used[i] && d < best[i] {
				best[i] = d
			}
		}
	}
	return total
}
