package distclk

// Tests of the Solver facade: construction, progress reporting, and the
// cancellation contract (best-so-far within 500ms, valid tour, no leaked
// goroutines).

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func TestNewRejectsNilInstance(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil instance accepted")
	}
}

func TestSolveOncePerSolver(t *testing.T) {
	in, _ := Generate("uniform", 30, 8)
	s, err := New(in, WithMaxKicks(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err == nil {
		t.Fatal("second Solve on the same Solver accepted")
	}
}

func TestSolverReportsProgressAndStats(t *testing.T) {
	in, _ := Generate("uniform", 500, 9)
	s, err := New(in, WithBudget(700*time.Millisecond), WithProgressInterval(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	progress := s.Progress()
	snaps := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for snap := range progress {
			snaps++
			if snap.Elapsed <= 0 {
				t.Errorf("snapshot with non-positive elapsed %v", snap.Elapsed)
			}
		}
	}()
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if snaps == 0 {
		t.Error("no progress snapshots during a 700ms solve")
	}
	if res.Elapsed <= 0 {
		t.Error("Result.Elapsed not measured")
	}
	if len(res.PerNode) != 1 {
		t.Fatalf("PerNode has %d entries, want 1", len(res.PerNode))
	}
	if res.PerNode[0].Kicks == 0 {
		t.Error("no kicks counted in a 700ms solve")
	}
	if res.PerNode[0].BestLength != res.Length {
		t.Errorf("PerNode best %d != result length %d", res.PerNode[0].BestLength, res.Length)
	}
}

func TestDistributedSolverPerNodeStats(t *testing.T) {
	in, _ := Generate("uniform", 200, 10)
	s, err := New(in,
		WithNodes(4),
		WithBudget(500*time.Millisecond),
		WithEAParameters(4, 16),
		WithKicksPerCall(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 4 || len(res.PerNode) != 4 {
		t.Fatalf("nodes=%d, per-node entries=%d, want 4/4", res.Nodes, len(res.PerNode))
	}
	var sent int64
	for _, ns := range res.PerNode {
		sent += ns.Broadcasts
	}
	if sent == 0 {
		t.Error("no broadcasts counted in a cooperative run")
	}
	if err := res.Tour.Validate(200); err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (plus slack for runtime helpers), failing the test otherwise.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// cancelMidSolve runs Solve with a context cancelled after delay and
// checks the cancellation contract.
func cancelMidSolve(t *testing.T, s *Solver, n int, delay time.Duration) Result {
	t.Helper()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	go func() {
		time.Sleep(delay)
		cancelled <- time.Now()
		cancel()
	}()
	res, err := s.Solve(ctx)
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if lag, limit := returned.Sub(<-cancelled), 500*time.Millisecond*raceSlack; lag > limit {
		t.Fatalf("Solve returned %v after cancellation, want < %v", lag, limit)
	}
	if err := res.Tour.Validate(n); err != nil {
		t.Fatalf("cancelled solve returned invalid tour: %v", err)
	}
	if res.Length <= 0 {
		t.Fatal("cancelled solve lost the best-so-far length")
	}
	waitGoroutines(t, baseline)
	return res
}

func TestCancelMidSolveCLK(t *testing.T) {
	in, _ := Generate("uniform", 1500, 11)
	s, err := New(in, WithBudget(30*time.Second), WithProgressInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	progress := s.Progress()
	go func() {
		for range progress {
		}
	}()
	cancelMidSolve(t, s, 1500, 300*time.Millisecond)
}

func TestCancelMidSolveCluster(t *testing.T) {
	in, _ := Generate("uniform", 600, 12)
	s, err := New(in,
		WithNodes(8),
		WithBudget(30*time.Second),
		WithEAParameters(4, 16),
		WithKicksPerCall(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	cancelMidSolve(t, s, 600, 400*time.Millisecond)
}
