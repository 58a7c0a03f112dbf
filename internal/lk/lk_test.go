package lk

import (
	"math/rand"
	"testing"

	"distclk/internal/exact"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

func randomInstance(n int, seed int64) *tsp.Instance {
	return tsp.Generate(tsp.FamilyUniform, n, seed)
}

func randomTourOf(n int, rng *rand.Rand) tsp.Tour {
	t := tsp.IdentityTour(n)
	rng.Shuffle(n, func(i, j int) { t[i], t[j] = t[j], t[i] })
	return t
}

// twoOptLength runs plain full 2-opt to local optimality (oracle quality bar).
func twoOptLength(in *tsp.Instance, start tsp.Tour) int64 {
	n := in.N()
	tour := start.Clone()
	dist := in.DistFunc()
	improved := true
	for improved {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				a, b := tour[i], tour[(i+1)%n]
				c, d := tour[j], tour[(j+1)%n]
				if a == c || a == d || b == c {
					continue
				}
				delta := dist(a, c) + dist(b, d) - dist(a, b) - dist(c, d)
				if delta < 0 {
					for x, y := i+1, j; x < y; x, y = x+1, y-1 {
						tour[x], tour[y] = tour[y], tour[x]
					}
					improved = true
				}
			}
		}
	}
	return tour.Length(in)
}

func TestLKProducesValidTour(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 50, 200} {
		in := randomInstance(n, int64(n))
		nbr := neighbor.Build(in, 8)
		start := randomTourOf(n, rng)
		o := NewOptimizer(in, nbr, start, DefaultParams())
		o.OptimizeAll(nil)
		got := o.Tour.Tour()
		if err := got.Validate(n); err != nil {
			t.Fatalf("n=%d: invalid tour after LK: %v", n, err)
		}
		if got.Length(in) != o.Length() {
			t.Fatalf("n=%d: cached length %d != recomputed %d", n, o.Length(), got.Length(in))
		}
	}
}

func TestLKImprovesRandomTour(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(150, 42)
	nbr := neighbor.Build(in, 8)
	start := randomTourOf(150, rng)
	startLen := start.Length(in)
	o := NewOptimizer(in, nbr, start, DefaultParams())
	gain := o.OptimizeAll(nil)
	if o.Length() >= startLen {
		t.Fatalf("LK did not improve: start %d, end %d", startLen, o.Length())
	}
	if gain != startLen-o.Length() {
		t.Fatalf("reported gain %d != actual %d", gain, startLen-o.Length())
	}
	// LK should be far better than random: random uniform tours are ~O(n)
	// times worse than optimal; expect at least 3x improvement.
	if o.Length()*3 > startLen {
		t.Fatalf("LK result %d suspiciously weak vs random start %d", o.Length(), startLen)
	}
}

func TestLKNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(60)
		in := randomInstance(n, int64(trial+100))
		nbr := neighbor.Build(in, 6)
		start := randomTourOf(n, rng)
		before := start.Length(in)
		o := NewOptimizer(in, nbr, start, DefaultParams())
		o.OptimizeAll(nil)
		if o.Length() > before {
			t.Fatalf("trial %d (n=%d): LK worsened tour %d -> %d", trial, n, before, o.Length())
		}
	}
}

func TestLKBeatsOrMatchesTwoOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var lkTotal, twoOptTotal int64
	for trial := 0; trial < 6; trial++ {
		n := 60 + rng.Intn(60)
		in := randomInstance(n, int64(trial+7))
		nbr := neighbor.Build(in, 10)
		start := randomTourOf(n, rng)
		o := NewOptimizer(in, nbr, start, DefaultParams())
		o.OptimizeAll(nil)
		lkTotal += o.Length()
		twoOptTotal += twoOptLength(in, start)
	}
	// LK explores a superset of 2-opt moves per chain; aggregate quality
	// must not be worse than plain 2-opt by more than 2%.
	if float64(lkTotal) > float64(twoOptTotal)*1.02 {
		t.Fatalf("LK total %d much worse than 2-opt total %d", lkTotal, twoOptTotal)
	}
}

func TestLKFindsOptimumSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	found := 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		n := 8 + rng.Intn(5) // 8..12
		in := randomInstance(n, int64(trial+31))
		_, optLen, err := exact.HeldKarp(in)
		if err != nil {
			t.Fatal(err)
		}
		nbr := neighbor.Build(in, n-1)
		o := NewOptimizer(in, nbr, randomTourOf(n, rng), DefaultParams())
		o.OptimizeAll(nil)
		if o.Length() < optLen {
			t.Fatalf("LK found %d below proven optimum %d — length bookkeeping is broken", o.Length(), optLen)
		}
		if o.Length() == optLen {
			found++
		}
	}
	// A single LK descent from a random tour finds the optimum on most
	// tiny instances; require a clear majority.
	if found < trials*2/3 {
		t.Fatalf("LK found optimum on only %d/%d tiny instances", found, trials)
	}
}

func TestLKQueueTargeted(t *testing.T) {
	// After full optimization, re-queuing all cities must yield zero gain
	// (local optimum is stable), and the queue must drain.
	in := randomInstance(120, 77)
	nbr := neighbor.Build(in, 8)
	rng := rand.New(rand.NewSource(21))
	o := NewOptimizer(in, nbr, randomTourOf(120, rng), DefaultParams())
	o.OptimizeAll(nil)
	settled := o.Length()
	if gain := o.OptimizeAll(nil); gain != 0 {
		t.Fatalf("second full pass found gain %d; expected stable local optimum", gain)
	}
	if o.Length() != settled {
		t.Fatalf("length drifted %d -> %d on no-op pass", settled, o.Length())
	}
}

func TestLKStopFunction(t *testing.T) {
	in := randomInstance(400, 99)
	nbr := neighbor.Build(in, 8)
	rng := rand.New(rand.NewSource(23))
	o := NewOptimizer(in, nbr, randomTourOf(400, rng), DefaultParams())
	calls := 0
	o.OptimizeAll(func() bool {
		calls++
		return true // abort at first poll
	})
	if calls == 0 {
		t.Fatal("stop function never polled")
	}
	// Tour must still be valid after an aborted pass.
	if err := o.Tour.Tour().Validate(400); err != nil {
		t.Fatalf("aborted optimize left invalid tour: %v", err)
	}
	if o.Tour.Tour().Length(in) != o.Length() {
		t.Fatal("aborted optimize left inconsistent cached length")
	}
}

// edgeKey is the undirected key of edge (a, b).
func edgeKey(a, b int32) [2]int32 { return [2]int32{min(a, b), max(a, b)} }

// tourEdges returns the undirected edge set of t.
func tourEdges(t tsp.Tour) map[[2]int32]bool {
	edges := make(map[[2]int32]bool, len(t))
	for i, a := range t {
		edges[edgeKey(a, t[(i+1)%len(t)])] = true
	}
	return edges
}

// TestTouchedCoversChangedEdges: after every accepted chain, each endpoint
// of every edge the chain removed or added must be in touched. A missed
// endpoint keeps its don't-look bit although its edges changed, so the
// settled tour is not a local optimum when every city is re-queued.
func TestTouchedCoversChangedEdges(t *testing.T) {
	for _, fam := range []tsp.Family{tsp.FamilyUniform, tsp.FamilyDrill} {
		for _, p := range []Params{DefaultParams(), relaxedParams()} {
			in := tsp.Generate(fam, 300, 12)
			nbr := neighbor.Build(in, 8)
			rng := rand.New(rand.NewSource(31))
			o := NewOptimizer(in, nbr, randomTourOf(in.N(), rng), p)
			chains := 0
			// checkGone fails unless both endpoints of every edge of t
			// missing from other are in touched.
			checkGone := func(c int32, t1 tsp.Tour, other map[[2]int32]bool) {
				touched := make(map[int32]bool, len(o.touched))
				for _, tc := range o.touched {
					touched[tc] = true
				}
				for i, a := range t1 {
					b := t1[(i+1)%len(t1)]
					if other[edgeKey(a, b)] {
						continue
					}
					if !touched[a] || !touched[b] {
						t.Fatalf("%v relax=%d: chain at %d changed edge (%d,%d), touched %v",
							fam, p.RelaxDepth, c, a, b, o.touched)
					}
				}
			}
			for c := int32(0); c < int32(in.N()); c++ {
				before := o.Tour.Tour()
				for o.improveCity(c) > 0 {
					chains++
					after := o.Tour.Tour()
					checkGone(c, before, tourEdges(after)) // removed edges
					checkGone(c, after, tourEdges(before)) // added edges
					before = after
				}
			}
			if chains == 0 {
				t.Fatalf("%v relax=%d: no chain accepted", fam, p.RelaxDepth)
			}
		}
	}
}

// TestAcceptedChainsAreEdgeDisjoint: from RelaxDepth on, no step of an
// accepted chain re-adds an edge the chain removed or removes an edge it
// added. Without the rule the greedy tail of the dive ping-pongs on one
// edge at unchanged partial gain, flipping all the way to MaxDepth.
func TestAcceptedChainsAreEdgeDisjoint(t *testing.T) {
	for _, fam := range []tsp.Family{tsp.FamilyUniform, tsp.FamilyDrill} {
		for _, p := range []Params{DefaultParams(), relaxedParams()} {
			in := tsp.Generate(fam, 1000, 5)
			nbr := neighbor.Build(in, 8)
			o := NewOptimizer(in, nbr, randomTourOf(in.N(), rand.New(rand.NewSource(17))), p)
			chains, broken := 0, 0
			for c := int32(0); c < int32(in.N()); c++ {
				for o.improveCity(c) > 0 {
					chains++
					chain := o.bestPath[:o.bestLen]
					removed := map[[2]int32]bool{edgeKey(o.t1, chain[0].loose): true}
					added := map[[2]int32]bool{}
					for i, s := range chain {
						add, rem := edgeKey(s.loose, s.y), edgeKey(s.v, s.y)
						if i >= p.RelaxDepth && (removed[add] || added[rem]) {
							broken++
							break
						}
						added[add] = true
						removed[rem] = true
					}
				}
			}
			if chains == 0 {
				t.Fatalf("%v relax=%d: no chain accepted", fam, p.RelaxDepth)
			}
			if broken > 0 {
				t.Errorf("%v relax=%d: %d of %d accepted chains undo their own edges",
					fam, p.RelaxDepth, broken, chains)
			}
		}
	}
}

// undoesChainScan is the disjointness check the chain record replaced: a
// scan of every earlier step of the path. It is the record's oracle.
func undoesChainScan(path []step, loose, v, y int32) bool {
	for _, s := range path {
		switch s.y {
		case y:
			if loose == s.v || v == s.loose {
				return true
			}
		case loose:
			if y == s.v {
				return true
			}
		case v:
			if y == s.loose {
				return true
			}
		}
	}
	return false
}

// TestChainRecordMatchesScan: at every disjointness check of full classic
// and relaxed descents, the chain record gives the scan's answer, and
// after each descent the record is empty again.
func TestChainRecordMatchesScan(t *testing.T) {
	for _, fam := range []tsp.Family{tsp.FamilyUniform, tsp.FamilyDrill} {
		for _, relax := range []int{0, 1, 3, 6} {
			in := tsp.Generate(fam, 600, 8)
			nbr := neighbor.Build(in, 8)
			p := DefaultParams()
			p.RelaxDepth = relax
			o := NewOptimizer(in, nbr, randomTourOf(in.N(), rand.New(rand.NewSource(4))), p)
			checks, clashes := 0, 0
			o.checkSpy = func(loose, v, y int32, undoes bool) {
				checks++
				want := undoesChainScan(o.path, loose, v, y)
				if undoes != want {
					t.Fatalf("%v relax=%d: step (%d,%d,%d) on path %v: record says %v, scan %v",
						fam, relax, loose, v, y, o.path, undoes, want)
				}
				if want {
					clashes++
				}
			}
			o.OptimizeAll(nil)
			if checks == 0 || clashes == 0 {
				t.Fatalf("%v relax=%d: %d checks, %d clashes; the oracle saw too little", fam, relax, checks, clashes)
			}
			for c, top := range o.yTop {
				if top != -1 {
					t.Fatalf("%v relax=%d: record entry for city %d is %d after the descent", fam, relax, c, top)
				}
			}
		}
	}
}

// TestChainRecordMatchesScanOnRepeatedCities drives the record directly
// with random pushes and pops over six cities, so one city is y of many
// steps at once (as unchecked steps below RelaxDepth allow), and compares
// it with the scan on every step dive can check: loose, v and y distinct.
func TestChainRecordMatchesScanOnRepeatedCities(t *testing.T) {
	const n = 6
	in := tsp.Generate(tsp.FamilyUniform, n, 1)
	p := DefaultParams()
	o := NewOptimizer(in, neighbor.Build(in, n-1), tsp.IdentityTour(n), p)
	rng := rand.New(rand.NewSource(3))
	distinct := func() (a, b, c int32) {
		perm := rng.Perm(n)
		return int32(perm[0]), int32(perm[1]), int32(perm[2])
	}
	for op := 0; op < 4000; op++ {
		if len(o.path) > 0 && (len(o.path) == p.MaxDepth || rng.Intn(3) == 0) {
			o.popStep()
		} else {
			loose, v, y := distinct()
			o.pushStep(step{loose: loose, v: v, y: y})
		}
		for q := 0; q < n*n*n; q++ {
			loose, v, y := int32(q%n), int32(q/n%n), int32(q/(n*n))
			if loose == v || v == y || y == loose {
				continue
			}
			if got, want := o.undoesChain(loose, v, y), undoesChainScan(o.path, loose, v, y); got != want {
				t.Fatalf("op %d: step (%d,%d,%d) on path %v: record says %v, scan %v", op, loose, v, y, o.path, got, want)
			}
		}
	}
}
