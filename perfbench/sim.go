package main

import (
	"context"
	"fmt"
	"time"

	"distclk/internal/construct"
	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/simnet"
	"distclk/internal/topology"
)

// sim-fl2k-64: seeded 64-node simnet clusters on the paper's hypercube,
// all on one 2000-city drilling instance, with the tour-diff wire,
// coalescing and 1% link drops. Everything runs on one goroutine, so a
// seed replays byte-identically.
const (
	simN          = 2000
	simNodes      = 64
	simIterations = 20
	// One cluster per simSecondsPerCluster nominal seconds (3 at 30s).
	simSecondsPerCluster = 10
	// simSetupReps set-ups before each cluster and after the last.
	simSetupReps = 5
)

func simEA(nb *neighbor.Lists) core.Config {
	ea := core.DefaultConfig()
	// c_v and c_r scaled to the 20-iteration budget, so variable-strength
	// perturbation and restarts both happen inside it.
	ea.CV, ea.CR = 2, 6
	ea.KicksPerCall = 2
	// Each node starts from a nearest-neighbour tour from its own random
	// city. From one shared Quick-Borůvka start, about a third of the
	// clusters stayed in one drilling optimum ~5% above the others.
	ea.CLK.Construct = construct.NearestNeighbor
	ea.CLK.Neighbors = nb
	return ea
}

func simConfig(nb *neighbor.Lists, seed int64) simnet.Config {
	return simnet.Config{
		Nodes:  simNodes,
		Topo:   topology.Hypercube,
		EA:     simEA(nb),
		Budget: core.Budget{MaxIterations: simIterations},
		Seed:   seed,
		Link: simnet.Link{
			Latency:  simnet.Latency{Kind: simnet.LatencyUniform, Base: 5 * time.Millisecond, Spread: 10 * time.Millisecond},
			DropProb: 0.01,
		},
		Exchange: dist.ExchangeConfig{Delta: true, KeyframeEvery: 16, Coalesce: true},
	}
}

func runSim(seed int64, seconds int, tr *tracer) *outcome {
	o := newOutcome()
	pts := genDrill(simN, rngFor(seed, 1))
	in := toInstance(fmt.Sprintf("drill%d-s%d", simN, seed), pts)
	clusters := max(1, seconds/simSecondsPerCluster)
	ctx := context.Background()

	// Set-up is what every node of a cluster pays before its first step:
	// the shared candidate lists and one node's construction + descent.
	// Each repetition builds a node with its own seed, so the median also
	// covers the spread of nearest-neighbour start cities. The repetitions
	// run before each cluster and after the last, so the median samples
	// the whole run rather than one moment of it (README.md, "Host noise").
	root := tr.begin("sim", 0, 0)
	var nodeMS []float64
	rep := int64(0)
	setUp := func() *neighbor.Lists {
		rep++
		id := tr.begin("neighbor.Build", root, 0)
		nb := neighbor.Build(in, 10)
		tr.end(id)
		id = tr.begin("core.NewNode", root, 0)
		t := time.Now()
		core.NewNode(0, in, simEA(nb), core.NopComm{}, seed+rep)
		nodeMS = append(nodeMS, ms(time.Since(t)))
		tr.end(id)
		return nb
	}
	// Probe passes run between the set-ups and, through probeCtx, between
	// the events of each simnet.Run, as do heap readings; their time is not
	// part of run_s.
	pr := newProbe()
	pr.tr, pr.parent = tr, root
	var nb *neighbor.Lists
	setups := timeReps(1, func() { nb = setUp() })
	repeatSetUp := func(reps int) {
		for i := 0; i < reps; i++ {
			setups = append(setups, timeReps(1, func() { setUp() })...)
			pr.tick()
		}
	}
	repeatSetUp(simSetupReps - 1)
	var heap heapPeak
	heap.mark()

	results := make([]simnet.Result, clusters)
	var run time.Duration
	for c := range results {
		if c > 0 {
			repeatSetUp(simSetupReps)
		}
		t0, spent0, heap0 := time.Now(), pr.spent, heap.spent
		id := tr.begin("simnet.Run", root, c+1)
		pr.parent, pr.op = id, c+1
		polls := 0
		results[c] = simnet.Run(probeCtx{ctx, pr, &heap, &polls}, in, simConfig(nb, rngFor(seed, int64(10+c)).Int63()))
		pr.parent, pr.op = root, 0
		tr.end(id)
		run += time.Since(t0) - (pr.spent - spent0) - (heap.spent - heap0)
	}
	repeatSetUp(simSetupReps)
	tr.end(root)

	var lengths, ttqs []float64
	var iters, restarts, received, accepted, events int64
	var f simnet.FaultStats
	for c, r := range results {
		o.attempted++
		if err := checkTour(pts, r.BestTour, r.BestLength); err != nil {
			o.fail("cluster %d best tour: %v", c, err)
		}
		if r.Faults.DeltaMismatches != 0 {
			o.fail("cluster %d: %d delta reconstructions differed from the sent tour", c, r.Faults.DeltaMismatches)
		}
		at, ok := firstReach(r.Events, r.BestLength)
		if !ok {
			o.fail("cluster %d: no event reports its final best %d", c, r.BestLength)
		}
		lengths = append(lengths, float64(r.BestLength))
		ttqs = append(ttqs, at.Seconds())
		iters += r.Iterations()
		for _, s := range r.Stats {
			restarts += s.Restarts
			received += s.Received
			accepted += s.Accepted
		}
		events += int64(len(r.Events))
		addFaults(&f, r.Faults)
	}
	// The median keeps one cluster stuck in a deep drilling optimum from
	// moving the run's quality.
	tourLen := median(lengths)
	o.e2e.set("setup_s", median(setups)*pr.scale(), "s")
	o.runS = run.Seconds()
	o.e2e.set("run_s", o.runS*pr.scale(), "s")
	o.e2e.set("tour_len", tourLen, "length")
	o.e2e.set("peak_heap_mb", heap.mib(), "MiB")
	o.det["tour_len"] = tourLen
	o.det["virt_ttq_s"] = median(ttqs)
	o.det["core.iterations"] = float64(iters)
	o.det["core.restarts"] = float64(restarts)
	o.det["dist.full_tours"] = float64(f.FullTours)
	o.det["dist.delta_tours"] = float64(f.DeltaTours)
	o.det["dist.wire_bytes"] = float64(f.WireBytes)
	if tr == nil {
		return o
	}

	L, D := o.layer, o.detail
	ladder(L, pts, in, seed)
	L.set("host.probe_ms", median(pr.passMS), "ms")
	tours := f.FullTours + f.DeltaTours
	D.set("simnet.virt_ttq_s", median(ttqs), "virtual_s")
	D.set("core.iterations", float64(iters), "count")
	D.set("core.restarts", float64(restarts), "count")
	D.set("core.adopt_ratio", float64(accepted)/float64(max(1, received)), "ratio")
	D.set("dist.delta_share", float64(f.DeltaTours)/float64(max(1, tours)), "ratio")
	D.set("dist.bytes_per_tour", float64(f.WireBytes)/float64(max(1, tours)), "B")
	D.set("dist.gap_ratio", float64(f.DeltaGaps)/float64(max(1, f.DeltaTours)), "ratio")
	D.set("simnet.msgs_delivered", float64(f.Delivered), "count")
	D.set("simnet.msgs_dropped", float64(f.Drops()), "count")
	D.set("obs.events", float64(events), "count")

	// What the rungs do not explain: per-node set-up inside each Run and at
	// each restart, the EA steps, and encoding plus decoding every tour put
	// on the wire.
	explained := float64(clusters*simNodes+int(restarts))*median(nodeMS) + float64(iters)*L["core.step_ms"].Value +
		(float64(tours)*L["dist.encode_us"].Value+float64(f.Delivered)*L["dist.decode_us"].Value)/1e3
	D.set("simnet.other_ms", ms(run)-explained, "ms")
	return o
}

// firstReach is the virtual time at which any node's best first reached
// target. The sim's target is each cluster's own final best: a fixed
// quality target is fragile on drilling instances (README.md, "Targets").
func firstReach(events []obs.Event, target int64) (time.Duration, bool) {
	at, ok := time.Duration(0), false
	for _, e := range events {
		if (e.Kind == obs.KindImprove || e.Kind == obs.KindImproveReceived) && e.Value <= target && (!ok || e.At < at) {
			at, ok = e.At, true
		}
	}
	return at, ok
}

func addFaults(dst *simnet.FaultStats, f simnet.FaultStats) {
	dst.Sent += f.Sent
	dst.Delivered += f.Delivered
	dst.DroppedLink += f.DroppedLink
	dst.DroppedPartition += f.DroppedPartition
	dst.DroppedCrash += f.DroppedCrash
	dst.DroppedInbox += f.DroppedInbox
	dst.FullTours += f.FullTours
	dst.DeltaTours += f.DeltaTours
	dst.WireBytes += f.WireBytes
	dst.DeltaGaps += f.DeltaGaps
}
