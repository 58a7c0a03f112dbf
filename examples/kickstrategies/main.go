// Kickstrategies reproduces the paper's §4.1 observation on a drilling
// instance: kicking strategies matter, and Random degrades on structured
// instances while Random-walk stays robust (compare Figure 2(a)).
//
//	go run ./examples/kickstrategies
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"distclk"
	"distclk/internal/heldkarp"
)

func main() {
	// A drilling-board stand-in, the instance family of fl1577/fl3795
	// where plain CLK famously stalls.
	in, err := distclk.Generate("drill", 1200, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %s with %d cities\n", in.Name, in.N())

	hk := heldkarp.LowerBound(in, heldkarp.Options{Iterations: 60})
	fmt.Printf("Held-Karp lower bound: %d\n\n", hk.Bound)

	for _, kick := range []string{"random", "geometric", "close", "random-walk"} {
		s, err := distclk.New(in,
			distclk.WithKick(kick),
			distclk.WithBudget(3*time.Second),
			distclk.WithSeed(3),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		gap := float64(res.Length-hk.Bound) / float64(hk.Bound) * 100
		fmt.Printf("%-12s length %10d   gap %6.3f%%   (%v)\n",
			kick, res.Length, gap, res.Elapsed.Round(time.Millisecond))
	}
}
