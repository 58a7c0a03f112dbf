package simnet

import (
	"context"
	"math/rand"
	"time"

	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// faultSeedSalt decorrelates the network's fault stream from the per-node
// search seeds (dist.NewNode).
const faultSeedSalt = 0x5137_CAFE

// Config describes one simulated cluster run.
type Config struct {
	// Nodes is the virtual cluster size (default 8, the paper's).
	Nodes int
	// Topo is the overlay topology.
	Topo topology.Kind
	// EA configures each node's evolutionary loop.
	EA core.Config
	// Budget bounds each node (Target / MaxIterations); virtual wall time
	// is bounded separately by VirtualTime.
	Budget core.Budget
	// NodeIterations, when non-nil, overrides Budget.MaxIterations per node
	// (entries <= 0 keep the shared budget) — heterogeneous lifetimes.
	NodeIterations []int64
	// VirtualTime stops every node once the virtual clock passes it
	// (0 = unbounded; then Budget or Target must terminate the run).
	VirtualTime time.Duration
	// Seed drives everything: per-node search seeds and the fault stream.
	// Same (instance, Config) ⇒ byte-identical event log.
	Seed int64
	// Link is the fault model applied to every overlay edge.
	Link Link
	// Exchange selects the wire protocol (tour-diff broadcast, queued
	// message coalescing in the receiver's inbox, gossip peer sampling),
	// applied by each node's dist.Exchange as on every transport. The
	// zero value is the full-tour protocol. Delta mode consumes the same
	// fault stream but different bandwidth delays, so enabling it
	// changes virtual timelines by design.
	Exchange dist.ExchangeConfig
	// InboxCapacity bounds each node's queue (default
	// dist.InboxCapacity); overflow drops are counted and evented.
	InboxCapacity int
	// Partitions and Crashes are the scripted fault schedule.
	Partitions []Partition
	Crashes    []Crash
	// StepCost is the virtual CPU cost charged per EA iteration (default
	// 100ms). Real CPU time is not measured — a deterministic cost model is
	// what makes replays exact.
	StepCost time.Duration
	// SpeedFactors scales StepCost per node (heterogeneous hardware);
	// entries <= 0 mean 1.0.
	SpeedFactors []float64
	// Obs, when set, supplies the observer — it must stamp with this run's
	// clock, so normally leave it nil and let Run build a virtual one.
	Obs *obs.Observer
}

// Result aggregates a simulated run: the cluster result — its Events
// stamped with virtual time and byte-identical across replays of the same
// (instance, Config), its wall-clock Elapsed unset — plus the fault
// ledger and virtual-clock readings.
type Result struct {
	dist.ClusterResult
	// Faults is the network's tally of everything it did to traffic.
	Faults FaultStats
	// VirtualElapsed is the virtual clock when the simulation ended.
	VirtualElapsed time.Duration
	// TargetReachedAt is the virtual time of the first optimum
	// announcement (0 = target never reached).
	TargetReachedAt time.Duration
}

// Run executes the distributed algorithm on the simulated network and
// returns the aggregated result. Every node is stepped one EA iteration at
// a time by the discrete-event loop — a single goroutine — with message
// deliveries, partitions and crashes interleaved at their virtual times.
// ctx is a real-time escape hatch (cancellation aborts mid-run and makes
// the replay guarantee void); determinism assumes ctx never fires.
func Run(ctx context.Context, inst *tsp.Instance, cfg Config) Result {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	if cfg.StepCost <= 0 {
		cfg.StepCost = 100 * time.Millisecond
	}
	if cfg.InboxCapacity <= 0 {
		cfg.InboxCapacity = dist.InboxCapacity
	}
	cfg.EA = dist.ShareCandidates(inst, cfg.EA)

	sched := &scheduler{}
	observer := cfg.Obs
	if observer == nil {
		observer = obs.NewVirtualObserver(cfg.Nodes, nil, sched.Now)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + faultSeedSalt))
	nw := newNetwork(cfg.Nodes, cfg.Topo, cfg.Link, cfg.InboxCapacity, cfg.Exchange, sched, rng, observer)

	nodes := make([]*core.Node, cfg.Nodes)
	finished := make([]bool, cfg.Nodes)
	// gen guards against double-stepping: a crash invalidates the pending
	// step chain (generation bump); restart starts a fresh chain.
	gen := make([]int, cfg.Nodes)

	stepCost := func(i int) time.Duration {
		d := cfg.StepCost
		if i < len(cfg.SpeedFactors) && cfg.SpeedFactors[i] > 0 {
			d = time.Duration(float64(d) * cfg.SpeedFactors[i])
		}
		if d <= 0 {
			d = 1
		}
		return d
	}
	finish := func(i int) {
		if !finished[i] {
			finished[i] = true
			nodes[i].Finish()
		}
	}
	var step func(i, g int)
	step = func(i, g int) {
		if finished[i] || nw.crashed[i] || gen[i] != g {
			return
		}
		if cfg.VirtualTime > 0 && sched.now >= cfg.VirtualTime {
			finish(i)
			return
		}
		if !nodes[i].Step(ctx) {
			finish(i)
			return
		}
		sched.after(stepCost(i), func() { step(i, g) })
	}

	for i := 0; i < cfg.Nodes; i++ {
		nodes[i] = dist.NewNode(i, inst, cfg.EA, nw.Comm(i), cfg.Seed, observer.Recorder(i))
		b := cfg.Budget
		if i < len(cfg.NodeIterations) && cfg.NodeIterations[i] > 0 {
			b.MaxIterations = cfg.NodeIterations[i]
		}
		i, b := i, b
		sched.schedule(0, func() {
			nodes[i].Begin(ctx, b)
			sched.after(stepCost(i), func() { step(i, gen[i]) })
		})
	}
	for _, p := range cfg.Partitions {
		p := p
		sched.schedule(p.At, func() { nw.applyPartition(p) })
		if p.Heal > p.At {
			sched.schedule(p.Heal, func() { nw.healPartition() })
		}
	}
	for _, c := range cfg.Crashes {
		c := c
		if c.Node < 0 || c.Node >= cfg.Nodes {
			continue
		}
		sched.schedule(c.At, func() {
			if nw.crashed[c.Node] || finished[c.Node] {
				return
			}
			gen[c.Node]++
			nw.crash(c.Node)
		})
		if c.Restart > c.At {
			sched.schedule(c.Restart, func() {
				if !nw.crashed[c.Node] || finished[c.Node] {
					return
				}
				nw.restart(c.Node, c.Fresh)
				if c.Fresh {
					nodes[c.Node].CrashRecover()
				}
				sched.after(stepCost(c.Node), func() { step(c.Node, gen[c.Node]) })
			})
		}
	}

	// Run until the queue drains: nodes stop rescheduling once their budget
	// is spent, and in-flight deliveries land so the fault ledger balances
	// (every sent copy is eventually delivered or accounted as dropped).
	sched.run(func() bool { return ctx.Err() != nil })
	// Crashed-forever nodes and early aborts still owe their Finish.
	for i := range nodes {
		finish(i)
	}

	return Result{
		ClusterResult:   dist.Collect(observer, nodes),
		Faults:          nw.stats,
		VirtualElapsed:  sched.now,
		TargetReachedAt: nw.stoppedAt,
	}
}
