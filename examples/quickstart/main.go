// Quickstart: generate a random 1000-city instance, solve it with plain
// Chained Lin-Kernighan for two seconds, then let eight cooperating nodes
// attack the same instance and compare.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"distclk"
)

func main() {
	// A PCB-drilling instance — regular hole lattices separated by empty
	// board gaps, the structure (fl1577/fl3795 in TSPLIB) on which plain
	// CLK famously gets stuck in deep local optima.
	in, err := distclk.Generate("drill", 500, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %s with %d cities\n\n", in.Name, in.N())

	ctx := context.Background()
	plain, err := distclk.New(in,
		distclk.WithBudget(6*time.Second),
		distclk.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}
	single, err := plain.Solve(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain CLK:    length %d in %v\n", single.Length, single.Elapsed.Round(time.Millisecond))

	// The distributed algorithm gets the same total CPU: 8 nodes share the
	// machine for the same wall-clock budget. c_v/c_r are scaled from the
	// paper's 64/256 to the compressed time scale (see EXPERIMENTS.md).
	cluster, err := distclk.New(in,
		distclk.WithNodes(8),
		distclk.WithBudget(6*time.Second),
		distclk.WithSeed(42),
		distclk.WithEAParameters(4, 16),
		distclk.WithKicksPerCall(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	multi, err := cluster.Solve(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DistCLK (8):  length %d in %v, %d tours exchanged\n",
		multi.Length, multi.Elapsed.Round(time.Millisecond), multi.Broadcasts)

	if err := multi.Tour.Validate(in.N()); err != nil {
		log.Fatal(err)
	}
	diff := float64(single.Length-multi.Length) / float64(single.Length) * 100
	fmt.Printf("\ncooperation advantage: %.3f%%\n", diff)
}
