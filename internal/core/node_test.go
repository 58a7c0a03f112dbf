package core

import (
	"context"
	"testing"
	"time"

	"distclk/internal/exact"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

func smallInstance(n int, seed int64) *tsp.Instance {
	return tsp.Generate(tsp.FamilyUniform, n, seed)
}

// testCtx bounds a test run the way Deadline budgets used to.
func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// observe attaches a fresh EA-level event collector to the node and
// returns it.
func observe(n *Node) *obs.MemorySink {
	sink := obs.NewMemorySink()
	n.SetRecorder(obs.NewRecorder(n.ID, obs.Filter(sink, obs.Kind.EALevel)))
	return sink
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CV != 64 {
		t.Errorf("CV = %d, want 64 (paper §3.1)", cfg.CV)
	}
	if cfg.CR != 256 {
		t.Errorf("CR = %d, want 256 (paper §3.1)", cfg.CR)
	}
}

func TestSingleNodeReachesOptimumSmall(t *testing.T) {
	in := smallInstance(16, 3)
	_, optLen, err := exact.HeldKarp(in)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(0, in, DefaultConfig(), NopComm{}, 1)
	sink := observe(node)
	stats := node.Run(testCtx(t, 20*time.Second), Budget{
		Target:        optLen,
		MaxIterations: 200,
	})
	if stats.BestLength != optLen {
		t.Fatalf("node reached %d, optimum %d", stats.BestLength, optLen)
	}
	tour, l := node.Best()
	if err := tour.Validate(16); err != nil {
		t.Fatal(err)
	}
	if tour.Length(in) != l {
		t.Fatalf("best length mismatch: %d vs %d", tour.Length(in), l)
	}
	// Optimum event must be recorded.
	found := false
	for _, e := range sink.Events() {
		if e.Kind == obs.KindOptimum {
			found = true
		}
	}
	if !found {
		t.Error("no optimum event recorded despite reaching target")
	}
}

func TestVariableStrengthFormula(t *testing.T) {
	// NumPerturbations = NumNoImprovements / c_v + 1 (Figure 1).
	in := smallInstance(100, 5)
	cfg := DefaultConfig()
	cfg.CV = 10
	cfg.CR = 1000
	node := NewNode(0, in, cfg, NopComm{}, 2)
	node.SeedBest()
	cases := []struct{ noImp, wantLevel int }{
		{0, 1}, {5, 1}, {9, 1}, {10, 2}, {25, 3}, {99, 10},
	}
	for _, tc := range cases {
		node.ForceNoImprove(tc.noImp)
		node.Perturbate()
		if got := node.PerturbLevel(); got != tc.wantLevel {
			t.Errorf("noImprove=%d: level %d, want %d", tc.noImp, got, tc.wantLevel)
		}
	}
}

func TestRestartAfterCR(t *testing.T) {
	in := smallInstance(100, 7)
	cfg := DefaultConfig()
	cfg.CR = 16
	node := NewNode(0, in, cfg, NopComm{}, 3)
	sink := observe(node)
	node.SeedBest()
	node.ForceNoImprove(17) // > CR
	node.Perturbate()
	if node.NoImprove() != 0 {
		t.Errorf("counters not reset after restart: %d", node.NoImprove())
	}
	restarted := false
	for _, e := range sink.Events() {
		if e.Kind == obs.KindRestart {
			restarted = true
		}
	}
	if !restarted {
		t.Error("restart not recorded")
	}
	// The solver must hold a valid optimized tour after reconstruction.
	tour, _ := node.Solver().Best()
	if err := tour.Validate(100); err != nil {
		t.Fatal(err)
	}
}

func TestNoRestartAtOrBelowCR(t *testing.T) {
	in := smallInstance(80, 9)
	cfg := DefaultConfig()
	cfg.CR = 16
	node := NewNode(0, in, cfg, NopComm{}, 4)
	sink := observe(node)
	node.SeedBest()
	node.ForceNoImprove(16) // == CR: Figure 1 uses strict >
	node.Perturbate()
	for _, e := range sink.Events() {
		if e.Kind == obs.KindRestart {
			t.Fatal("restarted at noImprove == CR; pseudocode requires strict >")
		}
	}
	if node.NoImprove() != 16 {
		t.Errorf("counter clobbered: %d", node.NoImprove())
	}
}

// recordingComm captures broadcasts and injects received tours.
type recordingComm struct {
	sent    []int64
	pending []Incoming
}

func (r *recordingComm) Broadcast(t tsp.Tour, l int64) { r.sent = append(r.sent, l) }
func (r *recordingComm) Drain() []Incoming {
	out := r.pending
	r.pending = nil
	return out
}
func (r *recordingComm) AnnounceOptimum(int64) {}
func (r *recordingComm) Stopped() bool         { return false }

func TestReceivedBetterTourAdoptedNotRebroadcast(t *testing.T) {
	in := smallInstance(60, 11)
	comm := &recordingComm{}
	cfg := DefaultConfig()
	cfg.KicksPerCall = 5
	node := NewNode(0, in, cfg, comm, 5)

	// Build a much better tour with a second, longer-running node.
	helper := NewNode(1, in, DefaultConfig(), NopComm{}, 6)
	helperStats := helper.Run(testCtx(t, 10*time.Second), Budget{MaxIterations: 30})
	better, betterLen := helper.Best()

	comm.pending = append(comm.pending, Incoming{From: 1, Tour: better, Length: betterLen})
	node.Run(testCtx(t, 10*time.Second), Budget{MaxIterations: 1})

	_, got := node.Best()
	if got > betterLen {
		t.Fatalf("node best %d did not adopt received tour %d", got, betterLen)
	}
	// The received tour must not be re-broadcast (only own CLK results are).
	for _, l := range comm.sent[1:] { // first send is the initial broadcast
		if l == betterLen && got == betterLen {
			t.Fatalf("node re-broadcast a received tour (len %d)", l)
		}
	}
	_ = helperStats
}

// TestLyingPeerTourRejected delivers a real tour whose claimed length is
// far shorter than its true one. SELECTBESTTOUR must recompute it and
// drop it: the node keeps its own best, which matches its recomputed
// length, and records the lie once.
func TestLyingPeerTourRejected(t *testing.T) {
	in := smallInstance(60, 11)
	comm := &recordingComm{}
	cfg := DefaultConfig()
	cfg.KicksPerCall = 5
	node := NewNode(0, in, cfg, comm, 5)
	sink := observe(node)

	lie := tsp.IdentityTour(in.N())
	claimed := lie.Length(in) / 10
	comm.pending = append(comm.pending, Incoming{From: 7, Tour: lie, Length: claimed})
	node.Run(testCtx(t, 10*time.Second), Budget{MaxIterations: 1})

	best, bestLen := node.Best()
	if bestLen == claimed {
		t.Fatalf("node adopted the lying peer's claimed length %d", claimed)
	}
	if got := best.Length(in); got != bestLen {
		t.Fatalf("node best claims %d, recomputed %d", bestLen, got)
	}
	mismatches := 0
	for _, e := range sink.Events() {
		switch e.Kind {
		case obs.KindLengthMismatch:
			mismatches++
			if e.Node != 0 || e.From != 7 || e.Value != claimed {
				t.Errorf("length-mismatch event = %+v, want node 0, from 7, value %d", e, claimed)
			}
		case obs.KindImproveReceived:
			t.Errorf("node adopted a received tour: %+v", e)
		}
	}
	if mismatches != 1 {
		t.Fatalf("got %d length-mismatch events, want 1", mismatches)
	}
}

func TestEventsTimeline(t *testing.T) {
	in := smallInstance(120, 13)
	node := NewNode(0, in, DefaultConfig(), NopComm{}, 7)
	sink := observe(node)
	node.Run(testCtx(t, 20*time.Second), Budget{MaxIterations: 10})
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var prev time.Duration
	for _, e := range events {
		if e.At < prev {
			t.Fatalf("events out of order: %v after %v", e.At, prev)
		}
		prev = e.At
	}
	if events[0].Kind != obs.KindImprove {
		t.Errorf("first event %v, want initial improve", events[0].Kind)
	}
}

func TestDisablePerturbationAblation(t *testing.T) {
	in := smallInstance(80, 15)
	cfg := DefaultConfig()
	cfg.DisablePerturbation = true
	cfg.KicksPerCall = 5
	node := NewNode(0, in, cfg, NopComm{}, 8)
	stats := node.Run(testCtx(t, 10*time.Second), Budget{MaxIterations: 5})
	if stats.Iterations != 5 {
		t.Fatalf("ran %d iterations, want 5", stats.Iterations)
	}
	tour, _ := node.Best()
	if err := tour.Validate(80); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetMaxIterations(t *testing.T) {
	in := smallInstance(60, 17)
	cfg := DefaultConfig()
	cfg.KicksPerCall = 3
	node := NewNode(0, in, cfg, NopComm{}, 9)
	stats := node.Run(testCtx(t, 10*time.Second), Budget{MaxIterations: 7})
	if stats.Iterations != 7 {
		t.Fatalf("iterations = %d, want 7", stats.Iterations)
	}
}

// TestSteppingAPIMatchesRun drives one node through Begin/Step/Finish and
// another identically-seeded node through Run; the trajectories must be
// identical — the simnet event loop depends on that equivalence.
func TestSteppingAPIMatchesRun(t *testing.T) {
	in := smallInstance(100, 21)
	cfg := DefaultConfig()
	cfg.KicksPerCall = 5
	ctx := testCtx(t, 30*time.Second)
	b := Budget{MaxIterations: 8}

	ran := NewNode(0, in, cfg, NopComm{}, 77)
	want := ran.Run(ctx, b)

	stepped := NewNode(0, in, cfg, NopComm{}, 77)
	stepped.Begin(ctx, b)
	steps := 0
	for stepped.Step(ctx) {
		steps++
	}
	got := stepped.Finish()

	if got.BestLength != want.BestLength || got.Iterations != want.Iterations {
		t.Fatalf("stepped run diverged: best %d/%d, iterations %d/%d",
			got.BestLength, want.BestLength, got.Iterations, want.Iterations)
	}
	if int64(steps) != got.Iterations {
		t.Fatalf("Step returned true %d times for %d iterations", steps, got.Iterations)
	}
}

func TestBeginTwicePanics(t *testing.T) {
	in := smallInstance(40, 23)
	node := NewNode(0, in, DefaultConfig(), NopComm{}, 1)
	ctx := testCtx(t, 10*time.Second)
	node.Begin(ctx, Budget{MaxIterations: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("second Begin did not panic")
		}
	}()
	node.Begin(ctx, Budget{MaxIterations: 1})
}

func TestCrashRecoverRebuildsState(t *testing.T) {
	in := smallInstance(80, 25)
	cfg := DefaultConfig()
	cfg.KicksPerCall = 3
	node := NewNode(0, in, cfg, NopComm{}, 5)
	sink := observe(node)
	ctx := testCtx(t, 20*time.Second)
	node.Begin(ctx, Budget{MaxIterations: 6})
	for i := 0; i < 2; i++ {
		if !node.Step(ctx) {
			t.Fatal("budget expired prematurely")
		}
	}
	node.ForceNoImprove(3)
	node.CrashRecover()
	if node.NoImprove() != 0 {
		t.Errorf("stagnation counter survived the crash: %d", node.NoImprove())
	}
	// The node must keep stepping on the rebuilt state.
	for node.Step(ctx) {
	}
	stats := node.Finish()
	if stats.Restarts == 0 {
		t.Error("crash recovery not counted as a restart")
	}
	restarts := 0
	for _, e := range sink.Events() {
		if e.Kind == obs.KindRestart {
			restarts++
		}
	}
	if restarts == 0 {
		t.Error("crash recovery emitted no restart event")
	}
	tour, l := node.Best()
	if err := tour.Validate(80); err != nil {
		t.Fatal(err)
	}
	if tour.Length(in) != l {
		t.Fatalf("best length mismatch after recovery: %d vs %d", tour.Length(in), l)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	in := smallInstance(400, 19)
	node := NewNode(0, in, DefaultConfig(), NopComm{}, 10)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	stats := node.Run(ctx, Budget{})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation ignored: ran %v", elapsed)
	}
	if stats.BestLength == 0 {
		t.Fatal("cancelled run lost its best tour")
	}
	tour, _ := node.Best()
	if err := tour.Validate(400); err != nil {
		t.Fatal(err)
	}
}

// TestUnobservedNodeCounts: a node with no recorder attached counts
// through the plain recorder NewNode gives it, so it reports exactly what
// an identically seeded observed node does, iterations included.
func TestUnobservedNodeCounts(t *testing.T) {
	in := smallInstance(120, 23)
	cfg := DefaultConfig()
	cfg.CV, cfg.CR = 1, 2 // stagnation restarts within the budget
	cfg.KicksPerCall = 5
	b := Budget{MaxIterations: 12}

	plain := NewNode(3, in, cfg, NopComm{}, 31)
	got := plain.Run(testCtx(t, 20*time.Second), b)

	observed := NewNode(3, in, cfg, NopComm{}, 31)
	observed.SetRecorder(obs.NewObserver(4, nil).Recorder(3))
	want := observed.Run(testCtx(t, 20*time.Second), b)

	if got != want {
		t.Fatalf("unobserved counters %+v, observed %+v", got, want)
	}
	if got.Node != 3 || got.Iterations != 12 || got.Restarts == 0 || got.Kicks == 0 {
		t.Fatalf("counters %+v: want node 3, 12 iterations, restarts and kicks", got)
	}
}
