package clk

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"distclk/internal/construct"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// TestGroupOneWorkerMatchesSolverRun pins the determinism contract at the
// engine level: a one-worker Group must reproduce Solver.Run byte for byte
// under the same seed — same kick count, same length, same tour order.
func TestGroupOneWorkerMatchesSolverRun(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 300, 11)
	b := Budget{MaxKicks: 200}

	ref := New(in, DefaultParams(), 17)
	want := ref.Run(context.Background(), b)

	g := NewGroup(context.Background(), in, DefaultParams(), GroupParams{Workers: 1}, 17)
	got := g.Run(context.Background(), b)

	if got.Length != want.Length {
		t.Fatalf("one-worker group length %d != solver length %d", got.Length, want.Length)
	}
	if got.Kicks != want.Kicks {
		t.Fatalf("one-worker group kicks %d != solver kicks %d", got.Kicks, want.Kicks)
	}
	if len(got.Tour) != len(want.Tour) {
		t.Fatalf("tour lengths differ: %d vs %d", len(got.Tour), len(want.Tour))
	}
	for i := range got.Tour {
		if got.Tour[i] != want.Tour[i] {
			t.Fatalf("tours diverge at position %d: %d vs %d", i, got.Tour[i], want.Tour[i])
		}
	}
}

// TestGroupRunMultiWorker checks the cooperative path end to end: all
// workers kick, the group total respects the budget (MaxKicks is exact),
// and the returned tour is valid and no worse than the best incumbent.
func TestGroupRunMultiWorker(t *testing.T) {
	in := tsp.Generate(tsp.FamilyClustered, 400, 7)
	g := NewGroup(context.Background(), in, DefaultParams(), GroupParams{Workers: 4, MergeEvery: 100}, 3)
	res := g.Run(context.Background(), Budget{MaxKicks: 600})
	if err := res.Tour.Validate(400); err != nil {
		t.Fatal(err)
	}
	if res.Kicks < 600 || res.Kicks >= 600+4 {
		t.Fatalf("group kicks = %d, want [600, 604)", res.Kicks)
	}
	if res.Length != res.Tour.Length(in) {
		t.Fatalf("reported length %d != recomputed %d", res.Length, res.Tour.Length(in))
	}
	if best := g.BestLength(); res.Length > best {
		t.Fatalf("result length %d worse than the best incumbent %d", res.Length, best)
	}
}

// TestGroupCancellation checks that cancelling the context stops every
// worker's round promptly.
func TestGroupCancellation(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 1000, 5)
	g := NewGroup(context.Background(), in, DefaultParams(), GroupParams{Workers: 4, MergeEvery: 50}, 9)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	done := make(chan Result, 1)
	go func() { done <- g.Run(ctx, Budget{}) }()
	select {
	case res := <-done:
		if err := res.Tour.Validate(1000); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Group.Run did not return after cancellation")
	}
}

// TestGroupReplay pins the round rule's determinism contract: under a
// MaxKicks budget, two runs with the same seed return the same tour,
// length and kick count at every worker count, merges included, and one
// worker reproduces Solver.Run element by element.
func TestGroupReplay(t *testing.T) {
	in := tsp.Generate(tsp.FamilyClustered, 200, 19)
	b := Budget{MaxKicks: 500}
	run := func(workers int) Result {
		g := NewGroup(context.Background(), in, DefaultParams(), GroupParams{Workers: workers, MergeEvery: 100}, 23)
		return g.Run(context.Background(), b)
	}
	sameTour := func(t *testing.T, a, b Result) {
		t.Helper()
		if a.Length != b.Length || a.Kicks != b.Kicks || len(a.Tour) != len(b.Tour) {
			t.Fatalf("runs differ: length %d/%d, kicks %d/%d", a.Length, b.Length, a.Kicks, b.Kicks)
		}
		for i := range a.Tour {
			if a.Tour[i] != b.Tour[i] {
				t.Fatalf("tours diverge at position %d: %d vs %d", i, a.Tour[i], b.Tour[i])
			}
		}
	}
	for _, w := range []int{1, 2, 4} {
		t.Run("w"+strconv.Itoa(w), func(t *testing.T) {
			a, b2 := run(w), run(w)
			if a.Kicks != b.MaxKicks {
				t.Fatalf("group kicks = %d, want exactly %d", a.Kicks, b.MaxKicks)
			}
			sameTour(t, a, b2)
			if w == 1 {
				sameTour(t, a, New(in, DefaultParams(), 23).Run(context.Background(), b))
			}
		})
	}
}

// TestRoundAllocsIndependentOfK pins the round's allocation contract: a
// round without adoption or merge costs a fixed number of allocations, so
// a round of 100 kicks allocates exactly as much as a round of 10 — the
// kick loop inside stays allocation-free.
func TestRoundAllocsIndependentOfK(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 100, 3)
	for _, workers := range []int{1, 2} {
		g := NewGroup(context.Background(), in, DefaultParams(), GroupParams{Workers: workers}, 5)
		allocs := func(k int64) float64 {
			g.share(k, 0)
			// AllocsPerRun's own warm-up round reaches steady state.
			return testing.AllocsPerRun(2, func() { g.round(context.Background(), 0) })
		}
		if a10, a100 := allocs(10), allocs(100); a10 != a100 {
			t.Errorf("%d workers: a round allocates %.1f objects at K=10 but %.1f at K=100", workers, a10, a100)
		}
	}
}

// TestGroupMergeFusesElites drives a merge pass directly: after a short
// cooperative run has filled the elite pool, a merging barrier must
// complete, count itself, leave the best no worse, and bring every worker
// to at least the fused tour.
func TestGroupMergeFusesElites(t *testing.T) {
	in := tsp.Generate(tsp.FamilyClustered, 500, 13)
	g := NewGroup(context.Background(), in, DefaultParams(), GroupParams{Workers: 3, MergeEvery: -1}, 21)
	g.Run(context.Background(), Budget{MaxKicks: 900})
	if len(g.pool.elites) < 2 {
		t.Skip("run pooled fewer than 2 distinct elites; nothing to fuse")
	}
	before := g.BestLength()
	g.barrier(context.Background(), g.best(), true)
	if g.Merges() != 1 {
		t.Fatalf("merges = %d, want 1", g.Merges())
	}
	after := g.BestLength()
	if after > before {
		t.Fatalf("merge worsened the best: %d -> %d", before, after)
	}
	for i, s := range g.workers {
		if s.BestLength() != after {
			t.Fatalf("worker %d at %d after the barrier, want the best %d", i, s.BestLength(), after)
		}
	}
}

// TestElitePool checks ordering, distinct-length dedup, and the size cap.
func TestElitePool(t *testing.T) {
	p := elitePool{limit: 3}
	for _, l := range []int64{50, 30, 40, 30, 60, 20} {
		p.offer(elite{length: l})
	}
	want := []int64{20, 30, 40}
	if len(p.elites) != len(want) {
		t.Fatalf("pool kept %d elites, want %d", len(p.elites), len(want))
	}
	for i, e := range p.elites {
		if e.length != want[i] {
			t.Fatalf("pool[%d] = %d, want %d", i, e.length, want[i])
		}
	}
	if p.slot(40) != -1 || p.slot(45) != -1 || p.slot(25) != 1 {
		t.Fatalf("slot rejects pooled and too-long lengths and places new ones: got %d %d %d",
			p.slot(40), p.slot(45), p.slot(25))
	}
}

// TestSharedTreeConcurrentFirstUse: an instance's k-d tree is built on
// first use. Goroutines that make that first use at once (candidate
// builds, group workers constructing nearest-neighbour tours, and workers
// restarting from them) must each see the tree a lone caller builds, and
// so produce exactly its lists and tours. Run under -race it also checks
// that the build is published safely.
func TestSharedTreeConcurrentFirstUse(t *testing.T) {
	const workers = 4
	fresh := func() *tsp.Instance { return tsp.Generate(tsp.FamilyDrill, 400, 21) }
	warm := func() *tsp.Instance {
		in := fresh()
		in.KDTree()
		return in
	}
	ctx := context.Background()
	want := neighbor.Build(warm(), 8)

	in := fresh()
	lists := make([]*neighbor.Lists, workers)
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lists[i] = neighbor.Build(in, 8)
		}(i)
	}
	wg.Wait()
	for i, l := range lists {
		for c := int32(0); c < int32(in.N()); c++ {
			if !slices.Equal(l.Of(c), want.Of(c)) {
				t.Fatalf("goroutine %d: city %d candidates %v, want %v", i, c, l.Of(c), want.Of(c))
			}
		}
	}

	sameWorkers := func(what string, got, ref *Group) {
		t.Helper()
		for i := 0; i < workers; i++ {
			gt, _ := got.workers[i].Best()
			rt, _ := ref.workers[i].Best()
			if !slices.Equal(gt, rt) {
				t.Fatalf("%s: worker %d tour differs from the one built on a warm tree", what, i)
			}
		}
	}
	gp := GroupParams{Workers: workers}
	p := DefaultParams()
	p.Neighbors = want

	// Construction: every worker builds its first tour at once.
	p.Construct = construct.NearestNeighbor
	sameWorkers("construct", NewGroup(ctx, fresh(), p, gp, 5), NewGroup(ctx, warm(), p, gp, 5))

	// Restart: Quick-Borůvka never touches the tree, so the workers'
	// concurrent restarts are its first use.
	p.Construct = construct.QuickBoruvka
	restart := func(in *tsp.Instance) *Group {
		g := NewGroup(ctx, in, p, gp, 6)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(s *Solver) {
				defer wg.Done()
				s.Reconstruct(construct.NearestNeighbor)
			}(g.workers[i])
		}
		wg.Wait()
		return g
	}
	sameWorkers("restart", restart(fresh()), restart(warm()))
}
