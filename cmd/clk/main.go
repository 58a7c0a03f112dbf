// Command clk is a linkern-like standalone Chained Lin-Kernighan solver.
//
// Usage:
//
//	clk -tsp instance.tsp -time 10s -kick random-walk -tour out.tour
//	clk -standin pr2392 -kicks 5000
//
// It prints improvement lines (kick count, tour length, elapsed) and the
// final tour length; with -tour it writes a TSPLIB .tour file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distclk/internal/cli"
	"distclk/internal/clk"
	"distclk/internal/obs"
)

func main() {
	var (
		tspPath = flag.String("tsp", "", "TSPLIB instance file")
		standin = flag.String("standin", "", "solve the synthetic stand-in for a paper instance name")
		family  = flag.String("family", "", "generate and solve: family name (with -n)")
		n       = flag.Int("n", 1000, "size for -family")
		seed    = flag.Int64("seed", 1, "random seed")
		kick    = flag.String("kick", "random-walk", "kicking strategy: random|geometric|close|random-walk")
		budget  = flag.Duration("time", 10*time.Second, "time limit")
		kicks   = flag.Int64("kicks", 0, "kick limit (0 = unlimited)")
		target  = flag.Int64("target", 0, "stop at this tour length (0 = none)")
		tourOut = flag.String("tour", "", "write the best tour to this file")
		quiet   = flag.Bool("q", false, "suppress improvement lines")
	)
	flag.Parse()

	in, err := cli.LoadInstance(*tspPath, *standin, *family, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clk:", err)
		os.Exit(1)
	}

	strategy, err := clk.ParseKick(*kick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clk:", err)
		os.Exit(1)
	}
	params := clk.DefaultParams()
	params.Kick = strategy

	start := time.Now()
	solver := clk.New(in, params, *seed)
	fmt.Printf("%s: n=%d, initial tour %d (%.2fs construct+LK)\n",
		in.Name, in.N(), solver.BestLength(), time.Since(start).Seconds())
	if !*quiet {
		solver.Rec = obs.NewRecorder(0, obs.SinkFunc(func(e obs.Event) {
			if e.Kind == obs.KindLKImprove {
				fmt.Printf("  kick %8d  len %12d  %8.2fs\n",
					solver.Kicks(), e.Value, time.Since(start).Seconds())
			}
		}))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *budget)
	defer cancel()
	res := solver.Run(ctx, clk.Budget{
		MaxKicks: *kicks,
		Target:   *target,
	})
	fmt.Printf("final: len=%d kicks=%d improves=%d elapsed=%.2fs\n",
		res.Length, res.Kicks, res.Improves, time.Since(start).Seconds())

	if *tourOut != "" {
		if err := cli.WriteTour(*tourOut, in.Name, res.Tour); err != nil {
			fmt.Fprintln(os.Stderr, "clk:", err)
			os.Exit(1)
		}
	}
}
