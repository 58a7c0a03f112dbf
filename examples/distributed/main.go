// Distributed demonstrates the paper's core claim on an fl3795-style
// drilling instance: plain CLK stalls in a deep local optimum, while the
// cooperating 8-node algorithm with variable-strength perturbation escapes
// — with the SAME total CPU budget (compare paper §4.2 and Figure 3(a)).
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"distclk"
)

func main() {
	// A 900-city drilling instance with the fl3795 board structure,
	// scaled so plain CLK's stall happens within this demo's budget (the
	// full-size stand-in needs minutes: distclk.StandIn("fl3795", 1)).
	in, err := distclk.Generate("drill", 900, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %s (%d cities, drilling-board structure)\n\n", in.Name, in.N())

	const totalCPU = 10 * time.Second

	fmt.Printf("plain CLK, %v budget...\n", totalCPU)
	ctx := context.Background()
	plain, err := distclk.New(in, distclk.WithBudget(totalCPU), distclk.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	single, err := plain.Solve(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  length %d\n\n", single.Length)

	// 8 nodes share the machine for the same wall budget -> same total CPU.
	fmt.Printf("DistCLK with 8 cooperating nodes, same total CPU...\n")
	// c_v/c_r scaled from the paper's 64/256 to this compressed time scale
	// so the variable-strength escalation engages (see EXPERIMENTS.md).
	cluster, err := distclk.New(in,
		distclk.WithNodes(8),
		distclk.WithBudget(totalCPU),
		distclk.WithSeed(5),
		distclk.WithTopology("hypercube"),
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
	fmt.Printf("  length %d, %d tours exchanged\n\n", multi.Length, multi.Broadcasts)

	switch {
	case multi.Length < single.Length:
		fmt.Printf("cooperation wins by %.3f%%\n",
			float64(single.Length-multi.Length)/float64(single.Length)*100)
	case multi.Length == single.Length:
		fmt.Println("both found the same tour length")
	default:
		fmt.Printf("plain CLK wins this seed by %.3f%% — rerun with more budget;\n"+
			"the paper's effect shows in expectation over runs\n",
			float64(multi.Length-single.Length)/float64(multi.Length)*100)
	}
}
