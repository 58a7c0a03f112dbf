// Command distclk runs the distributed Chained Lin-Kernighan algorithm.
//
// In-process mode (default) runs the whole cluster in one process, one
// goroutine per node exchanging tours over channels:
//
//	distclk -standin fl3795 -nodes 8 -time 60s
//
// TCP mode runs ONE node of a real multi-machine deployment; start
// cmd/hub first, then one distclk per machine:
//
//	hub     -listen :7070 -nodes 8 &
//	distclk -tsp inst.tsp -hub host:7070 -listen :0 -time 600s
//
// Simnet mode replays the cluster on a deterministic virtual-time network
// simulator — same seed, same result, any host — with injectable faults.
// It is the substrate of every cluster run cmd/repro makes:
//
//	distclk -standin E1k.1 -simnet -nodes 16 -drop 0.05 -viters 200
//
// Past the paper's 8 nodes, -topology picks a scalable overlay
// (hier-hypercube or tree-of-rings keep the per-node degree flat) and the
// exchange-protocol flags bound traffic: -delta sends tour diffs instead
// of full tours (with a full keyframe every N deltas), -gossip replaces
// neighbour broadcast with random fanout, and -batch coalesces undrained
// tours per sender in the receiver's inbox, in every mode. A 256-node
// virtual cluster:
//
//	distclk -standin E1k.1 -simnet -nodes 256 -topology tree-of-rings \
//	        -delta 64 -batch -cv 4 -cr 16 -kpc 1 -viters 6
//
// Every node writes its local best; collect the minimum across nodes, as
// the paper does.
//
// Ctrl-C cancels the solve gracefully: the best tour found so far is
// printed (and written with -tour). -pprof and -metrics expose live
// profiling and counter endpoints for long runs.
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
	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/simnet"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

func main() {
	var (
		tspPath = flag.String("tsp", "", "TSPLIB instance file")
		standin = flag.String("standin", "", "solve the synthetic stand-in for a paper instance name")
		family  = flag.String("family", "", "generate and solve: family name (with -n)")
		n       = flag.Int("n", 1000, "size for -family")
		seed    = flag.Int64("seed", 1, "random seed")
		nodes   = flag.Int("nodes", 8, "cluster size (in-process mode)")
		topoStr = flag.String("topology", "hypercube", "overlay: hypercube|ring|grid|complete|hier-hypercube|tree-of-rings")
		deltaKF = flag.Int("delta", 0, "tour-diff exchange: full keyframe every N deltas (0 = off, send full tours)")
		gossip  = flag.Int("gossip", 0, "gossip fanout: broadcast to N random peers instead of topology neighbours (0 = off; not available in TCP mode)")
		batch   = flag.Bool("batch", false, "coalesce undrained tours per sender: a receiver keeps only the best queued tour of each sender")
		kick    = flag.String("kick", "random-walk", "kicking strategy")
		cand    = flag.String("candidates", "knn", "candidate-set strategy: auto|knn|quadrant|alpha|delaunay")
		relax   = flag.Int("relax", 0, "relaxed-gain depth: LK chain depths below it may carry a bounded non-positive partial gain (0 = classic rule; unset = auto's recommendation)")
		budget  = flag.Duration("time", 10*time.Second, "per-node time limit")
		target  = flag.Int64("target", 0, "stop at this tour length (0 = none)")
		cv      = flag.Int("cv", 64, "perturbation strength divisor c_v (scale down for short runs)")
		cr      = flag.Int("cr", 256, "restart threshold c_r (scale down for short runs)")
		kpc     = flag.Int64("kpc", 0, "CLK kicks per EA iteration (0 = n/10)")
		hubAddr = flag.String("hub", "", "TCP mode: hub address (runs one node)")
		listen  = flag.String("listen", "127.0.0.1:0", "TCP mode: this node's listen address")
		simMode = flag.Bool("simnet", false, "simulate the cluster on a deterministic virtual-time network")
		simDrop = flag.Float64("drop", 0, "simnet: per-message drop probability")
		simLat  = flag.Duration("latency", 5*time.Millisecond, "simnet: median link latency")
		simIter = flag.Int64("viters", 100, "simnet: EA iterations per node (virtual budget)")
		tourOut = flag.String("tour", "", "write the best tour to this file")
		pprofAd = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
		metrics = flag.String("metrics", "", "serve a JSON counter snapshot on this address at /metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray argument stops flag parsing, so every flag after it
		// would be ignored silently.
		fmt.Fprintf(os.Stderr, "distclk: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	in, err := cli.LoadInstance(*tspPath, *standin, *family, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distclk:", err)
		os.Exit(1)
	}
	kind, err := topology.Parse(*topoStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distclk:", err)
		os.Exit(1)
	}
	strategy, err := clk.ParseKick(*kick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distclk:", err)
		os.Exit(1)
	}
	ex := dist.ExchangeConfig{
		Delta:         *deltaKF > 0,
		KeyframeEvery: *deltaKF,
		Gossip:        *gossip > 0,
		Fanout:        *gossip,
		Coalesce:      *batch,
	}
	if *gossip > 0 && *hubAddr != "" {
		fmt.Fprintln(os.Stderr, "distclk: -gossip is not available in TCP mode (nodes only know their hub-assigned neighbours)")
		os.Exit(1)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ea := core.DefaultConfig()
	ea.CV, ea.CR = *cv, *cr
	ea.CLK.Kick = strategy
	ea.KicksPerCall = *kpc
	ea.CLK.Neighbors, ea.CLK.LK.RelaxDepth, err = candidates(in, *cand, *relax, set["relax"])
	if err != nil {
		fmt.Fprintln(os.Stderr, "distclk:", err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM cancels the context; the solve unwinds and reports
	// its best-so-far tour. Unregistering on the first signal restores the
	// default fatal disposition, so a second one force-quits a stuck drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	// Simnet runs are budgeted in virtual iterations (-viters), and a
	// wall-clock cancellation mid-run would break their byte-identical
	// replay, so the -time limit applies there only when set explicitly
	// (large clusters can need minutes of wall time for setup alone).
	if !*simMode || set["time"] {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}

	var best tsp.Tour
	var bestLen int64
	if *simMode {
		best, bestLen = runSimnet(ctx, in, kind, ea, ex, *nodes, *target, *seed, *simDrop, *simLat, *simIter)
	} else if *hubAddr != "" {
		best, bestLen, err = runTCPNode(ctx, in, *hubAddr, *listen, ea, ex, *target, *seed, *pprofAd, *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "distclk:", err)
			os.Exit(1)
		}
	} else {
		observer := obs.NewObserver(*nodes, nil)
		if err := cli.ServeDebug(*pprofAd, *metrics, func() any { return observer.Counters() }); err != nil {
			fmt.Fprintln(os.Stderr, "distclk:", err)
			os.Exit(1)
		}
		res := dist.RunCluster(ctx, in, dist.ClusterConfig{
			Nodes:    *nodes,
			Topo:     kind,
			EA:       ea,
			Budget:   core.Budget{Target: *target},
			Seed:     *seed,
			Exchange: ex,
			Obs:      observer,
		})
		best, bestLen = res.BestTour, res.BestLength
		fmt.Printf("cluster: %d nodes, %d broadcasts, best %d in %.2fs wall\n",
			*nodes, res.Broadcasts(), bestLen, res.Elapsed.Seconds())
		for _, s := range res.Stats {
			printNode("  ", s)
		}
	}
	fmt.Printf("final: len=%d\n", bestLen)

	if *tourOut != "" {
		if err := cli.WriteTour(*tourOut, in.Name, best); err != nil {
			fmt.Fprintln(os.Stderr, "distclk:", err)
			os.Exit(1)
		}
	}
}

// printNode prints one node's counters on one line, after indent.
func printNode(indent string, s obs.CounterSnapshot) {
	fmt.Printf("%snode %d: best=%d iters=%d kicks=%d sent=%d recv=%d accepted=%d restarts=%d\n",
		indent, s.Node, s.BestLength, s.Iterations, s.Kicks, s.Broadcasts, s.Received, s.Accepted, s.Restarts)
}

// candidates builds the -candidates lists once, through the neighbor.Select
// the facade uses, so every node of every mode searches the same lists. An
// explicitly set -relax wins over the depth the strategy recommends (auto's
// choice; 0 for a named strategy).
func candidates(in *tsp.Instance, name string, relax int, relaxSet bool) (*neighbor.Lists, int, error) {
	nbr, choice, err := neighbor.Select(in, name, clk.DefaultParams().NeighborK)
	if err != nil {
		return nil, 0, err
	}
	if !relaxSet {
		relax = choice.RelaxDepth
	}
	return nbr, relax, nil
}

// runSimnet replays the cluster on simnet's virtual clock: deterministic
// for a fixed seed, independent of host load, with injectable faults.
func runSimnet(ctx context.Context, in *tsp.Instance, kind topology.Kind, ea core.Config, ex dist.ExchangeConfig, nodes int, target, seed int64, drop float64, latency time.Duration, viters int64) (tsp.Tour, int64) {
	res := simnet.Run(ctx, in, simnet.Config{
		Nodes:    nodes,
		Topo:     kind,
		EA:       ea,
		Budget:   core.Budget{Target: target, MaxIterations: viters},
		Seed:     seed,
		Exchange: ex,
		Link: simnet.Link{
			Latency:  simnet.Latency{Kind: simnet.LatencyLognormal, Base: latency},
			DropProb: drop,
		},
	})
	fmt.Printf("simnet: %d nodes, %d broadcasts, best %d at virtual %.2fs (sent=%d delivered=%d dropped=%d)\n",
		nodes, res.Broadcasts(), res.BestLength, res.VirtualElapsed.Seconds(),
		res.Faults.Sent, res.Faults.Delivered, res.Faults.Drops())
	if ex.Delta {
		fmt.Printf("simnet: wire %d B (%d full / %d delta tours, %d gaps, %d coalesced)\n",
			res.Faults.WireBytes, res.Faults.FullTours, res.Faults.DeltaTours,
			res.Faults.DeltaGaps, res.Faults.Coalesced)
	}
	if res.TargetReachedAt > 0 {
		fmt.Printf("simnet: target reached at virtual %.2fs\n", res.TargetReachedAt.Seconds())
	}
	for _, s := range res.Stats {
		printNode("  ", s)
	}
	return res.BestTour, res.BestLength
}

func runTCPNode(ctx context.Context, in *tsp.Instance, hubAddr, listen string, ea core.Config, ex dist.ExchangeConfig, target, seed int64, pprofAd, metrics string) (tsp.Tour, int64, error) {
	progress := obs.SinkFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindImprove:
			fmt.Printf("  %8.2fs  len %d\n", e.At.Seconds(), e.Value)
		case obs.KindImproveReceived:
			fmt.Printf("  %8.2fs  len %d (from node %d)\n", e.At.Seconds(), e.Value, e.From)
		}
	})
	tn, err := dist.JoinTCPConfig(ctx, hubAddr, listen, in.N(), dist.TCPConfig{Exchange: ex}, progress)
	if err != nil {
		return nil, 0, err
	}
	defer tn.Close()
	fmt.Printf("node %d/%d: listening on %s, %d peers\n", tn.ID, tn.Total, tn.Addr(), tn.PeerCount())
	node := dist.NewNode(tn.ID, in, ea, tn, seed, tn.Recorder())
	if err := cli.ServeDebug(pprofAd, metrics, func() any { return tn.Recorder().Snapshot() }); err != nil {
		return nil, 0, err
	}
	printNode("", node.Run(ctx, core.Budget{Target: target}))
	tour, l := node.Best()
	return tour, l, nil
}
