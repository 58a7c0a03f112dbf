// Tcpcluster runs the paper's real network stack end to end in a single
// process: a bootstrap hub and four TCP nodes on localhost form a
// hypercube, solve cooperatively, and report per-node statistics. This is
// exactly the multi-machine deployment path (cmd/hub + cmd/distclk), just
// co-located for demonstration.
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"distclk"
	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/obs"
	"distclk/internal/topology"
)

func main() {
	const nodes = 4
	in, err := distclk.Generate("clustered", 400, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %s (%d cities), %d TCP nodes in a hypercube\n\n", in.Name, in.N(), nodes)

	hub, err := dist.NewHub("127.0.0.1:0", nodes, topology.Hypercube)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	go hub.Serve(ctx)
	fmt.Printf("hub listening on %s\n", hub.Addr())

	var wg sync.WaitGroup
	stats := make([]obs.CounterSnapshot, nodes)
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			tn, err := dist.JoinTCP(ctx, hub.Addr(), "127.0.0.1:0", in.N())
			if err != nil {
				log.Printf("node %d join failed: %v", idx, err)
				return
			}
			defer tn.Close()
			cfg := core.DefaultConfig()
			cfg.CV, cfg.CR = 4, 16 // scaled to the short demo budget
			cfg.KicksPerCall = 10
			runCtx, cancel := context.WithTimeout(ctx, 4*time.Second)
			defer cancel()
			node := dist.NewNode(tn.ID, in, cfg, tn, 1, tn.Recorder())
			stats[idx] = node.Run(runCtx, core.Budget{})
		}(i)
	}
	wg.Wait()
	hub.Close()

	best := int64(0)
	for _, s := range stats {
		fmt.Printf("node %d: best %d, %d iterations, sent %d, received %d\n",
			s.Node, s.BestLength, s.Iterations, s.Broadcasts, s.Received)
		if s.BestLength > 0 && (best == 0 || s.BestLength < best) {
			best = s.BestLength
		}
	}
	fmt.Printf("\ncluster best (collected from local outputs, paper §2.3): %d\n", best)
}
