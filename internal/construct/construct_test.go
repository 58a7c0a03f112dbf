package construct

import (
	"math/rand"
	"testing"

	"distclk/internal/geom"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

var allMethods = []Method{QuickBoruvka, Greedy, NearestNeighbor, SpaceFilling}

func TestAllMethodsProduceValidTours(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fam := range []tsp.Family{tsp.FamilyUniform, tsp.FamilyClustered, tsp.FamilyDrill} {
		for _, n := range []int{5, 37, 200} {
			in := tsp.Generate(fam, n, int64(n))
			nbr := neighbor.Build(in, 8)
			for _, m := range allMethods {
				tour := Build(m, in, nbr, rng)
				if err := tour.Validate(n); err != nil {
					t.Fatalf("%v on %v n=%d: %v", m, fam, n, err)
				}
			}
		}
	}
}

func TestConstructionQualityOrdering(t *testing.T) {
	// Sanity: every heuristic beats random by a wide margin; greedy and
	// quick-Borůvka beat space-filling.
	in := tsp.Generate(tsp.FamilyUniform, 600, 3)
	nbr := neighbor.Build(in, 10)
	rng := rand.New(rand.NewSource(5))
	lengths := map[Method]int64{}
	for _, m := range allMethods {
		lengths[m] = Build(m, in, nbr, rng).Length(in)
	}
	random := tsp.IdentityTour(in.N())
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	randomLen := random.Length(in)
	for _, m := range allMethods {
		if lengths[m]*2 > randomLen {
			t.Errorf("%v (%d) not far below random (%d)", m, lengths[m], randomLen)
		}
	}
	for _, m := range []Method{QuickBoruvka, Greedy} {
		if lengths[m] > lengths[SpaceFilling] {
			t.Errorf("%v (%d) worse than space-filling (%d)", m, lengths[m], lengths[SpaceFilling])
		}
	}
}

func TestQuickBoruvkaDeterministic(t *testing.T) {
	in := tsp.Generate(tsp.FamilyGrid, 300, 7)
	nbr := neighbor.Build(in, 8)
	a := Build(QuickBoruvka, in, nbr, nil)
	b := Build(QuickBoruvka, in, nbr, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("quick-Borůvka not deterministic")
		}
	}
}

func TestExplicitInstanceConstruction(t *testing.T) {
	m := []int64{
		0, 1, 9, 9,
		1, 0, 1, 9,
		9, 1, 0, 1,
		9, 9, 1, 0,
	}
	in, err := tsp.NewExplicit("p4", 4, m)
	if err != nil {
		t.Fatal(err)
	}
	nbr := neighbor.Build(in, 3)
	for _, meth := range allMethods {
		tour := Build(meth, in, nbr, rand.New(rand.NewSource(1)))
		if err := tour.Validate(4); err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
	}
	// Greedy should find the path-like optimum 0-1-2-3 (length 1+1+1+9=12).
	g := Build(Greedy, in, nbr, nil)
	if got := g.Length(in); got != 12 {
		t.Errorf("greedy on path metric: %d, want 12", got)
	}
}

func TestNearestNeighborStartsAtRandomCity(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 100, 9)
	seen := map[int32]bool{}
	for s := int64(0); s < 10; s++ {
		tour := Build(NearestNeighbor, in, nil, rand.New(rand.NewSource(s)))
		seen[tour[0]] = true
	}
	if len(seen) < 3 {
		t.Errorf("NN start city not randomized: %d distinct starts", len(seen))
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range allMethods {
		if m.String() == "unknown" {
			t.Errorf("method %d unnamed", m)
		}
	}
}

func TestFragmentSetStitchesDegenerate(t *testing.T) {
	// Tiny instances exercise the fragment-closing fallbacks.
	for n := 3; n <= 6; n++ {
		in := tsp.Generate(tsp.FamilyUniform, n, int64(n))
		nbr := neighbor.Build(in, 2)
		tour := Build(QuickBoruvka, in, nbr, nil)
		if err := tour.Validate(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// nearestNeighborReference is the k-doubling constructor nearestNeighbor
// replaced: at every step it asks a fresh k-d tree for the k nearest cities
// and takes the first unvisited one, doubling k from 8 until one appears.
// It is the oracle for the LiveSet walk, ties included.
func nearestNeighborReference(in *tsp.Instance, start int32) tsp.Tour {
	n := in.N()
	tree := geom.NewKDTree(in.Pts)
	visited := make([]bool, n)
	tour := make(tsp.Tour, 0, n)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	for len(tour) < n {
		next := int32(-1)
		for k := 8; ; k *= 2 {
			if k > n-1 {
				k = n - 1
			}
			for _, c := range tree.KNearest(in.Pts[cur], k, int(cur)) {
				if !visited[c] {
					next = c
					break
				}
			}
			if next >= 0 || k == n-1 {
				break
			}
		}
		if next < 0 {
			break
		}
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	return tour
}

// latticeInstance puts cities on an exact integer w×h lattice, with every
// seventh city doubled, so most steps of a nearest-neighbour walk are ties.
func latticeInstance(w, h int) *tsp.Instance {
	var pts []geom.Point
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := geom.Point{X: float64(10 * x), Y: float64(10 * y)}
			pts = append(pts, p)
			if len(pts)%7 == 0 {
				pts = append(pts, p)
			}
		}
	}
	return tsp.New("lattice", geom.Euc2D, pts)
}

// TestNearestNeighborMatchesReference checks that the LiveSet walk builds
// the reference tour, city for city: from every start on small instances
// of each geometric family (and an exact lattice with duplicate points),
// and from sampled starts at n = 2000.
func TestNearestNeighborMatchesReference(t *testing.T) {
	type tc struct {
		in   *tsp.Instance
		step int
	}
	var cases []tc
	for _, fam := range []tsp.Family{tsp.FamilyDrill, tsp.FamilyGrid, tsp.FamilyUniform, tsp.FamilyClustered} {
		cases = append(cases,
			tc{tsp.Generate(fam, 120, 3), 1},
			tc{tsp.Generate(fam, 2000, 42), 97})
	}
	cases = append(cases, tc{latticeInstance(12, 10), 1})
	for _, c := range cases {
		n := c.in.N()
		for s := 0; s < n; s += c.step {
			want := nearestNeighborReference(c.in, int32(s))
			got := nearestNeighbor(c.in, int32(s))
			if len(got) != len(want) {
				t.Fatalf("%s n=%d start %d: %d cities, want %d", c.in.Name, n, s, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d start %d: step %d took %d, want %d", c.in.Name, n, s, i, got[i], want[i])
				}
			}
		}
	}
}
