package simnet

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"distclk/internal/core"
	"distclk/internal/exact"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func testConfig(nodes int) Config {
	ea := core.DefaultConfig()
	ea.KicksPerCall = 5 // cheap EA iterations; the network is under test here
	return Config{
		Nodes:  nodes,
		Topo:   topology.Hypercube,
		EA:     ea,
		Budget: core.Budget{MaxIterations: 6},
		Seed:   42,
	}
}

// chaosLink exercises every fault class and rand draw in one schedule.
func chaosLink() Link {
	return Link{
		Latency:     Latency{Kind: LatencyLognormal, Base: 20 * time.Millisecond, Sigma: 0.7},
		DropProb:    0.15,
		DupProb:     0.10,
		ReorderProb: 0.20,
		Bandwidth:   1 << 20, // 1 MiB/s: payload-proportional delay
	}
}

// marshalLog renders the event stream the way `-trace` would: one JSON line
// per event, in order. Byte-identical logs are the determinism contract.
func marshalLog(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("encode event: %v", err)
		}
	}
	return buf.Bytes()
}

// Same (instance, Config) ⇒ byte-identical event log, fault tallies, and
// result — the acceptance criterion for the whole subsystem.
func TestDeterministicReplay(t *testing.T) {
	// Every node drives exactly one clk.Solver chain.
	t.Run("workers=1", func(t *testing.T) {
		in := tsp.Generate(tsp.FamilyUniform, 80, 27)
		cfg := testConfig(8)
		cfg.Budget.MaxIterations = 8
		cfg.Link = chaosLink()
		cfg.Partitions = []Partition{{
			At:     200 * time.Millisecond,
			Heal:   450 * time.Millisecond,
			Groups: [][]int{{0, 1, 2, 3}},
		}}
		cfg.Crashes = []Crash{
			{Node: 5, At: 150 * time.Millisecond, Restart: 400 * time.Millisecond, Fresh: true},
			{Node: 2, At: 300 * time.Millisecond}, // never restarts
		}
		cfg.SpeedFactors = []float64{1, 1.5, 1, 2, 1, 1, 0.5, 1}

		a := Run(context.Background(), in, cfg)
		b := Run(context.Background(), in, cfg)

		logA, logB := marshalLog(t, a.Events), marshalLog(t, b.Events)
		if len(logA) == 0 {
			t.Fatal("run produced no events")
		}
		if !bytes.Equal(logA, logB) {
			t.Fatalf("event logs differ between replays:\n--- run A (%d bytes)\n%.2000s\n--- run B (%d bytes)\n%.2000s",
				len(logA), logA, len(logB), logB)
		}
		if a.Faults != b.Faults {
			t.Fatalf("fault stats differ: %+v vs %+v", a.Faults, b.Faults)
		}
		if a.BestLength != b.BestLength || a.VirtualElapsed != b.VirtualElapsed {
			t.Fatalf("results differ: best %d/%d elapsed %v/%v",
				a.BestLength, b.BestLength, a.VirtualElapsed, b.VirtualElapsed)
		}
		if len(a.BestTour) != len(b.BestTour) {
			t.Fatal("best tours differ between replays")
		}
		for i := range a.BestTour {
			if a.BestTour[i] != b.BestTour[i] {
				t.Fatal("best tours differ between replays")
			}
		}
	})
}

// A different seed must actually change the run — otherwise the replay test
// proves nothing.
func TestSeedChangesOutcome(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 80, 27)
	cfg := testConfig(4)
	cfg.Link = chaosLink()
	a := Run(context.Background(), in, cfg)
	cfg.Seed = 43
	b := Run(context.Background(), in, cfg)
	if bytes.Equal(marshalLog(t, a.Events), marshalLog(t, b.Events)) {
		t.Fatal("different seeds produced identical event logs")
	}
}

// The cluster must still find the known optimum through a lossy, reordering
// network — the paper's core robustness claim.
func TestConvergesUnderFaults(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 14, 21)
	_, optLen, err := exact.HeldKarp(in)
	if err != nil {
		t.Fatalf("HeldKarp: %v", err)
	}
	cfg := testConfig(4)
	cfg.Budget = core.Budget{Target: optLen, MaxIterations: 400}
	cfg.Link = chaosLink()
	res := Run(context.Background(), in, cfg)
	if res.BestLength != optLen {
		t.Fatalf("best length %d, want optimum %d", res.BestLength, optLen)
	}
	if res.TargetReachedAt <= 0 {
		t.Fatal("optimum reached but TargetReachedAt not stamped")
	}
	if res.TargetReachedAt > res.VirtualElapsed {
		t.Fatalf("TargetReachedAt %v after end of run %v", res.TargetReachedAt, res.VirtualElapsed)
	}
}

func countKind(events []obs.Event, k obs.Kind) int {
	n := 0
	for _, e := range events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestPartitionDropsAndHeals(t *testing.T) {
	// 200 cities, not 60: LK solves a 60-city instance during
	// construction, so every broadcast goes out at t=0, before the split,
	// and the drop assertion below would test no traffic at all.
	in := tsp.Generate(tsp.FamilyUniform, 200, 25)
	cfg := testConfig(4)
	cfg.Budget.MaxIterations = 12
	// Split {0,1} | {2,3} for most of the run, then heal.
	part := Partition{
		At:     50 * time.Millisecond,
		Heal:   900 * time.Millisecond,
		Groups: [][]int{{0, 1}, {2, 3}},
	}
	cfg.Partitions = []Partition{part}
	res := Run(context.Background(), in, cfg)
	sentDuring := 0
	for _, e := range res.Events {
		if e.Kind == obs.KindBroadcastSent && e.At >= part.At && e.At < part.Heal {
			sentDuring++
		}
	}
	if sentDuring == 0 {
		t.Fatalf("precondition: no broadcast sent during the partition [%v, %v)", part.At, part.Heal)
	}
	if res.Faults.DroppedPartition == 0 {
		t.Fatal("no messages dropped at the partition boundary")
	}
	if got := countKind(res.Events, obs.KindPartitionStart); got != 1 {
		t.Fatalf("partition-start events = %d, want 1", got)
	}
	if got := countKind(res.Events, obs.KindPartitionHeal); got != 1 {
		t.Fatalf("partition-heal events = %d, want 1", got)
	}
	if res.Faults.Delivered == 0 {
		t.Fatal("nothing delivered despite healed partition")
	}
}

func TestCrashRestartChurn(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)
	cfg := testConfig(4)
	cfg.Budget.MaxIterations = 15
	cfg.Link.Latency = Latency{Kind: LatencyFixed, Base: 40 * time.Millisecond}
	cfg.Crashes = []Crash{
		{Node: 1, At: 250 * time.Millisecond, Restart: 700 * time.Millisecond, Fresh: true},
		{Node: 3, At: 300 * time.Millisecond}, // permanent
	}
	res := Run(context.Background(), in, cfg)

	if got := countKind(res.Events, obs.KindNodeCrash); got != 2 {
		t.Fatalf("node-crash events = %d, want 2", got)
	}
	if got := countKind(res.Events, obs.KindNodeRestart); got != 1 {
		t.Fatalf("node-restart events = %d, want 1", got)
	}
	if res.Stats[1].Restarts == 0 {
		t.Fatal("fresh restart did not count as a search restart on node 1")
	}
	// Node 3 died mid-run: it must have stepped less than the survivors.
	if res.Stats[3].Iterations >= res.Stats[0].Iterations {
		t.Fatalf("permanently crashed node iterated %d >= survivor's %d",
			res.Stats[3].Iterations, res.Stats[0].Iterations)
	}
	if res.Faults.DroppedCrash == 0 {
		t.Fatal("no traffic dropped at the crashed nodes")
	}
	// Node 1 kept stepping after its fresh restart.
	if res.Stats[1].Iterations == 0 {
		t.Fatal("restarted node never iterated")
	}
}

func TestDuplicationAndReordering(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)
	cfg := testConfig(4)
	cfg.Budget.MaxIterations = 12
	cfg.Link = Link{
		Latency:     Latency{Kind: LatencyUniform, Base: 5 * time.Millisecond, Spread: 30 * time.Millisecond},
		DupProb:     0.5,
		ReorderProb: 0.5,
	}
	res := Run(context.Background(), in, cfg)
	if res.Faults.Duplicated == 0 {
		t.Fatal("DupProb=0.5 produced no duplicates")
	}
	if res.Faults.Reordered == 0 {
		t.Fatal("ReorderProb=0.5 produced no reordered messages")
	}
	// Duplicates traverse the link individually, so deliveries can exceed
	// logical sends; at minimum the dup copies must show up somewhere.
	if res.Faults.Delivered+res.Faults.Drops() != res.Faults.Sent+res.Faults.Duplicated {
		t.Fatalf("conservation violated: delivered %d + dropped %d != sent %d + duplicated %d",
			res.Faults.Delivered, res.Faults.Drops(), res.Faults.Sent, res.Faults.Duplicated)
	}
	if got := countKind(res.Events, obs.KindMsgDuplicated); int64(got) != res.Faults.Duplicated {
		t.Fatalf("msg-duplicated events = %d, stats say %d", got, res.Faults.Duplicated)
	}
}

// Degraded (non-power-of-two) hypercubes must still connect the cluster:
// tours propagate and every node both sends and receives.
func TestDegradedHypercubeSizes(t *testing.T) {
	for _, n := range []int{6, 12} {
		in := tsp.Generate(tsp.FamilyUniform, 60, 25)
		cfg := testConfig(n)
		cfg.Budget.MaxIterations = 10
		res := Run(context.Background(), in, cfg)
		if res.Faults.Sent == 0 || res.Faults.Delivered == 0 {
			t.Fatalf("n=%d: no traffic on degraded hypercube (%+v)", n, res.Faults)
		}
		for i, s := range res.Stats {
			if s.Broadcasts == 0 {
				t.Fatalf("n=%d: node %d never broadcast", n, i)
			}
		}
		var received int64
		for _, s := range res.Stats {
			received += s.Received
		}
		if received == 0 {
			t.Fatalf("n=%d: no node drained any tour", n)
		}
	}
}

// VirtualTime bounds the run on the virtual clock, and SpeedFactors skew
// per-node progress deterministically.
func TestVirtualTimeAndSpeedFactors(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)
	cfg := testConfig(2)
	cfg.Budget = core.Budget{MaxIterations: 1_000_000}
	cfg.VirtualTime = 2 * time.Second
	cfg.StepCost = 100 * time.Millisecond
	cfg.SpeedFactors = []float64{1, 4} // node 1 is 4x slower
	res := Run(context.Background(), in, cfg)

	if res.VirtualElapsed > cfg.VirtualTime+cfg.StepCost*4 {
		t.Fatalf("virtual clock ran to %v, bound was %v", res.VirtualElapsed, cfg.VirtualTime)
	}
	fast, slow := res.Stats[0].Iterations, res.Stats[1].Iterations
	if fast <= slow {
		t.Fatalf("fast node iterated %d <= slow node's %d", fast, slow)
	}
	// ~20 fast steps vs ~5 slow steps in 2 virtual seconds.
	if fast < 3*slow {
		t.Fatalf("speed factor 4 yielded only %dx progress (%d vs %d)", fast/slow, fast, slow)
	}
}

// NodeIterations gives each node its own budget — the virtual-clock port of
// the heterogeneous-lifetime churn scenario.
func TestHeterogeneousIterationBudgets(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)
	cfg := testConfig(4)
	cfg.Budget = core.Budget{MaxIterations: 12}
	cfg.NodeIterations = []int64{2, 2, 0, 0} // nodes 0,1 retire early
	res := Run(context.Background(), in, cfg)

	for _, i := range []int{0, 1} {
		if res.Stats[i].Iterations != 2 {
			t.Fatalf("node %d iterated %d, want its private budget 2", i, res.Stats[i].Iterations)
		}
	}
	for _, i := range []int{2, 3} {
		if res.Stats[i].Iterations != 12 {
			t.Fatalf("node %d iterated %d, want the shared budget 12", i, res.Stats[i].Iterations)
		}
	}
}

// Dropped messages must be visible: counted in FaultStats, bumped on the
// obs counters, and evented with the receiver as Node.
func TestDropAccounting(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)
	cfg := testConfig(2)
	cfg.Budget.MaxIterations = 10
	cfg.Link.DropProb = 1.0 // lose everything
	res := Run(context.Background(), in, cfg)

	if res.Faults.Delivered != 0 {
		t.Fatalf("DropProb=1 delivered %d messages", res.Faults.Delivered)
	}
	if res.Faults.DroppedLink != res.Faults.Sent {
		t.Fatalf("dropped %d of %d sent", res.Faults.DroppedLink, res.Faults.Sent)
	}
	var counterDrops int64
	for _, c := range res.Stats {
		counterDrops += c.MsgDrops
	}
	if counterDrops != res.Faults.Sent {
		t.Fatalf("obs counters saw %d drops, network dropped %d", counterDrops, res.Faults.Sent)
	}
	for _, e := range res.Events {
		if e.Kind == obs.KindMsgDropped && (e.Node < 0 || e.Node >= 2 || e.From < 0) {
			t.Fatalf("malformed drop event: %+v", e)
		}
	}
}

// Event timestamps come from the virtual clock: monotone, and bounded by
// the final virtual time.
func TestEventTimestampsAreVirtual(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)
	cfg := testConfig(2)
	cfg.Budget.MaxIterations = 5
	cfg.StepCost = time.Hour // virtual hours elapse in wall-clock milliseconds
	start := time.Now()
	res := Run(context.Background(), in, cfg)
	wall := time.Since(start)

	if res.VirtualElapsed < 4*time.Hour {
		t.Fatalf("virtual clock only advanced to %v", res.VirtualElapsed)
	}
	if wall > time.Minute {
		t.Fatalf("simulation took %v of wall time", wall)
	}
	var prev time.Duration
	for _, e := range res.Events {
		if e.At < prev {
			t.Fatalf("event timestamps not monotone: %v after %v", e.At, prev)
		}
		prev = e.At
		if e.At > res.VirtualElapsed {
			t.Fatalf("event at %v beyond end of run %v", e.At, res.VirtualElapsed)
		}
	}
}

// Cancelling ctx aborts the event loop without hanging or panicking.
func TestContextCancellation(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)
	cfg := testConfig(2)
	cfg.Budget = core.Budget{MaxIterations: 1_000_000}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, in, cfg)
	if res.Nodes != 2 || len(res.Stats) != 2 {
		t.Fatalf("aborted run returned malformed result: %+v", res)
	}
}
