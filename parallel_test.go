package distclk

// Tests of the parallel-solve facade: the options matrix, the multi-error
// build contract, one-worker determinism, worker cancellation, and
// per-worker statistics.

import (
	"context"
	"strings"
	"testing"
	"time"

	"distclk/internal/clk"
	"distclk/internal/neighbor"
)

func TestBuildCollectsAllOptionErrors(t *testing.T) {
	in, _ := Generate("uniform", 30, 8)
	_, err := New(in,
		WithBudget(-time.Second),
		WithMaxKicks(-1),
		WithTarget(-5),
		WithWorkers(-2),
	)
	if err == nil {
		t.Fatal("four invalid options accepted")
	}
	for _, want := range []string{"budget", "max kicks", "target", "worker count"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("multi-error misses %q: %v", want, err)
		}
	}
}

func TestOptionMatrixValidation(t *testing.T) {
	in, _ := Generate("uniform", 30, 8)
	cases := []struct {
		name string
		opts []Option
		want string // substring of the expected error, "" = must succeed
	}{
		{"topology without nodes", []Option{WithTopology("ring")}, "WithTopology requires WithNodes"},
		{"ea parameters without nodes", []Option{WithEAParameters(4, 16)}, "WithEAParameters requires WithNodes"},
		{"kicks per call without nodes", []Option{WithKicksPerCall(10)}, "WithKicksPerCall requires WithNodes"},
		{"max kicks with nodes", []Option{WithNodes(2), WithMaxKicks(10)}, "WithMaxKicks bounds plain CLK"},
		{"merge cadence with nodes", []Option{WithNodes(2), WithMergeEvery(100)}, "WithMergeEvery applies to parallel plain-CLK"},
		{"auto workers with nodes", []Option{WithNodes(2), WithWorkers(0)}, "WithWorkers applies to plain-CLK"},
		{"merge cadence at one worker", []Option{WithWorkers(1), WithMergeEvery(100)}, "requires WithWorkers(n > 1)"},
		{"merge cadence without workers", []Option{WithMergeEvery(100)}, "requires WithWorkers(n > 1)"},
		{"negative merge cadence", []Option{WithWorkers(2), WithMergeEvery(-1)}, "negative merge cadence"},
		{"explicit workers with nodes", []Option{WithNodes(2), WithWorkers(2)}, "WithWorkers applies to plain-CLK"},
		{"auto workers plain", []Option{WithWorkers(0)}, ""},
		{"merge cadence with workers", []Option{WithWorkers(4), WithMergeEvery(100)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(in, tc.opts...)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid combination accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParallelCLKDeterminismAtOneWorker pins the compatibility contract:
// a one-worker solve — the default — runs a one-worker clk.Group, and must
// return the byte-identical tour a plain clk.Solver run returns for the
// same candidate lists and seed.
func TestParallelCLKDeterminismAtOneWorker(t *testing.T) {
	in, _ := Generate("uniform", 300, 11)
	nbr, choice, err := neighbor.Select(in, "auto", clk.DefaultParams().NeighborK)
	if err != nil {
		t.Fatal(err)
	}
	p := clk.DefaultParams()
	p.Neighbors = nbr
	p.LK.RelaxDepth = choice.RelaxDepth
	want := clk.New(in, p, 17).Run(context.Background(), clk.Budget{MaxKicks: 150})
	for _, opts := range [][]Option{nil, {WithWorkers(1)}} {
		s, err := New(in, append([]Option{WithMaxKicks(150), WithSeed(17)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != want.Length {
			t.Fatalf("facade length %d != Solver.Run length %d", got.Length, want.Length)
		}
		for i := range want.Tour {
			if got.Tour[i] != want.Tour[i] {
				t.Fatalf("tours diverge at position %d", i)
			}
		}
	}
}

// TestParallelCLKNoLeaks checks the cancellation contract for a parallel
// solve: every worker stops promptly mid-round and nothing leaks.
func TestParallelCLKNoLeaks(t *testing.T) {
	in, _ := Generate("uniform", 1500, 11)
	s, err := New(in,
		WithWorkers(4),
		WithMergeEvery(500),
		WithBudget(30*time.Second),
		WithProgressInterval(20*time.Millisecond),
	)
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

// TestParallelSolveFacade checks the redesigned surface end to end:
// per-worker PerNode statistics, the resolved worker count in snapshots,
// and the group-total kick budget.
func TestParallelSolveFacade(t *testing.T) {
	in, _ := Generate("uniform", 300, 9)
	s, err := New(in,
		WithWorkers(2),
		WithMaxKicks(400),
		WithBudget(30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tour.Validate(300); err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != 2 {
		t.Fatalf("PerNode has %d entries, want one per worker (2)", len(res.PerNode))
	}
	var kicks int64
	for i, ns := range res.PerNode {
		if ns.Node != i {
			t.Errorf("PerNode[%d].Node = %d, want %d", i, ns.Node, i)
		}
		kicks += ns.Kicks
	}
	if kicks < 400 {
		t.Errorf("workers kicked %d times in total, want >= the 400 group budget", kicks)
	}
}

// TestParallelSnapshotReportsWorkers runs a time-bounded parallel solve so
// the progress pump ticks many times, and checks the new Snapshot fields.
func TestParallelSnapshotReportsWorkers(t *testing.T) {
	in, _ := Generate("uniform", 500, 9)
	// raceSlack keeps the kick phase alive under -race, where group
	// construction alone can eat 500ms.
	s, err := New(in,
		WithWorkers(2),
		WithBudget(500*time.Millisecond*raceSlack),
		WithProgressInterval(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	progress := s.Progress()
	var lastSnap Snapshot
	snaps := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for snap := range progress {
			lastSnap = snap
			snaps++
		}
	}()
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if snaps == 0 {
		t.Fatal("no progress snapshots during a 500ms parallel solve")
	}
	if lastSnap.Workers != 2 {
		t.Errorf("Snapshot.Workers = %d, want 2", lastSnap.Workers)
	}
	if len(lastSnap.WorkerKicks) != 2 {
		t.Errorf("Snapshot.WorkerKicks has %d entries, want 2", len(lastSnap.WorkerKicks))
	}
	var kicks int64
	for _, k := range lastSnap.WorkerKicks {
		kicks += k
	}
	if kicks == 0 {
		t.Error("WorkerKicks all zero in a 500ms parallel solve")
	}
}
