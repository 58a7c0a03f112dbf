// Baselines runs the three reimplemented comparison solvers from the
// paper's Table 2 — LKH-style (alpha-nearness + deep LK), Walshaw-style
// multilevel CLK, and Cook&Seymour-style tour merging — against DistCLK on
// one instance, printing each solver's quality/time trade-off.
//
//	go run ./examples/baselines
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"distclk"
	"distclk/internal/heldkarp"
	"distclk/internal/lkh"
	"distclk/internal/merge"
	"distclk/internal/multilevel"
)

func main() {
	in, err := distclk.Generate("grid", 800, 3)
	if err != nil {
		log.Fatal(err)
	}
	hk := heldkarp.LowerBound(in, heldkarp.Options{Iterations: 60})
	fmt.Printf("instance %s (%d cities), HK bound %d\n\n", in.Name, in.N(), hk.Bound)
	gap := func(l int64) float64 { return float64(l-hk.Bound) / float64(hk.Bound) * 100 }

	// Each baseline gets its own budget, so a slow row cannot leave the
	// rows after it under an already expired deadline.
	deadline := func() time.Time { return time.Now().Add(8 * time.Second) }

	lp := lkh.DefaultParams()
	lp.Trials = 300
	lr := lkh.Solve(in, lp, 1, deadline(), 0)
	fmt.Printf("%-22s length %10d  gap %6.3f%%  time %v\n",
		"LKH-style", lr.Length, gap(lr.Length), lr.Elapsed.Round(time.Millisecond))

	mr := multilevel.Solve(in, multilevel.DefaultParams(), 1, deadline(), 0)
	fmt.Printf("%-22s length %10d  gap %6.3f%%  time %v (%d levels)\n",
		"multilevel CLK", mr.Length, gap(mr.Length), mr.Elapsed.Round(time.Millisecond), mr.Levels)

	tp := merge.DefaultParams()
	tp.Tours = 6
	tp.KicksPerTour = 150
	tr := merge.Solve(in, tp, 1, deadline(), 0)
	fmt.Printf("%-22s length %10d  gap %6.3f%%  time %v (union %d edges, base best %d)\n",
		"tour merging", tr.Length, gap(tr.Length), tr.Elapsed.Round(time.Millisecond),
		tr.UnionEdges, tr.BaseBest)

	ds, err := distclk.New(in, distclk.WithNodes(8), distclk.WithBudget(3*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	dr, err := ds.Solve(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s length %10d  gap %6.3f%%  time %v\n",
		"DistCLK (8 nodes)", dr.Length, gap(dr.Length), dr.Elapsed.Round(time.Millisecond))
}
