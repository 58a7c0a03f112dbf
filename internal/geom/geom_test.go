package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMetricKnownValues(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 3, Y: 4}
	cases := []struct {
		m    MetricKind
		want int64
	}{
		{Euc2D, 5},
		{Ceil2D, 5},
		{Man2D, 7},
		{Max2D, 4},
	}
	for _, tc := range cases {
		if got := tc.m.Dist(a, b); got != tc.want {
			t.Errorf("%v.Dist = %d, want %d", tc.m, got, tc.want)
		}
	}
	// EUC_2D rounds to nearest: distance sqrt(2) ~ 1.41 -> 1.
	if got := Euc2D.Dist(Point{0, 0}, Point{1, 1}); got != 1 {
		t.Errorf("EUC_2D(unit diagonal) = %d, want 1", got)
	}
	// CEIL_2D rounds up: sqrt(2) -> 2.
	if got := Ceil2D.Dist(Point{0, 0}, Point{1, 1}); got != 2 {
		t.Errorf("CEIL_2D(unit diagonal) = %d, want 2", got)
	}
}

func TestAttMatchesTSPLIBFormula(t *testing.T) {
	// ATT: rij = sqrt((dx^2+dy^2)/10); tij = round(rij); if tij < rij
	// then tij+1.
	a := Point{X: 0, Y: 0}
	b := Point{X: 10, Y: 0}
	// r = sqrt(100/10) = sqrt(10) = 3.162..., round -> 3, 3 < r -> 4.
	if got := Att.Dist(a, b); got != 4 {
		t.Errorf("ATT = %d, want 4", got)
	}
}

func TestGeoDistanceSanity(t *testing.T) {
	// Two points one degree of latitude apart ~ 111 km on the TSPLIB
	// earth model.
	a := Point{X: 50.0, Y: 8.0}
	b := Point{X: 51.0, Y: 8.0}
	d := Geo.Dist(a, b)
	if d < 105 || d > 120 {
		t.Errorf("GEO 1-degree distance = %d km, want ~111", d)
	}
	if Geo.Dist(a, a) != 0 && Geo.Dist(a, a) != 1 {
		// Acos rounding can produce 0 or the +1.0 constant floor.
		t.Errorf("GEO self-distance = %d", Geo.Dist(a, a))
	}
}

func TestMetricProperties(t *testing.T) {
	metrics := []MetricKind{Euc2D, Ceil2D, Att, Man2D, Max2D}
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to a sane coordinate range.
		clampf := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clampf(ax), clampf(ay)}
		b := Point{clampf(bx), clampf(by)}
		for _, m := range metrics {
			if m.Dist(a, b) != m.Dist(b, a) {
				return false // symmetry
			}
			if m.Dist(a, b) < 0 {
				return false // non-negativity
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricStrings(t *testing.T) {
	for _, m := range []MetricKind{Euc2D, Ceil2D, Att, Geo, Man2D, Max2D} {
		if m.String() == "UNKNOWN" {
			t.Errorf("metric %d has no name", m)
		}
	}
}

func randomPoints(n int, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(200)
		pts := randomPoints(n, rng)
		tree := NewKDTree(pts)
		q := rng.Intn(n)
		k := 1 + rng.Intn(10)
		got := tree.KNearest(pts[q], k, q)

		// Brute force.
		type dc struct {
			d float64
			i int32
		}
		var all []dc
		for i := range pts {
			if i == q {
				continue
			}
			all = append(all, dc{SqDist(pts[q], pts[i]), int32(i)})
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[i].d {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			t.Fatalf("n=%d k=%d: got %d results, want %d", n, k, len(got), want)
		}
		for i := range got {
			gd := SqDist(pts[q], pts[got[i]])
			if math.Abs(gd-all[i].d) > 1e-9 {
				t.Fatalf("n=%d k=%d: rank %d distance %f, want %f", n, k, i, gd, all[i].d)
			}
		}
	}
}

func TestKDTreeOrderedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(500, rng)
	tree := NewKDTree(pts)
	res := tree.KNearest(Point{500, 500}, 20, -1)
	for i := 1; i < len(res); i++ {
		if SqDist(Point{500, 500}, pts[res[i-1]]) > SqDist(Point{500, 500}, pts[res[i]]) {
			t.Fatal("KNearest results not ascending")
		}
	}
}

func TestKDTreeNearestExcludes(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {5, 5}}
	live := NewKDTree(pts).NewLiveSet()
	if got, _ := live.Nearest(pts[0]); got != 0 {
		t.Errorf("Nearest with self live = %d, want 0", got)
	}
	live.Remove(0)
	if got, _ := live.Nearest(pts[0]); got != 1 {
		t.Errorf("Nearest with self removed = %d, want 1", got)
	}
}

func TestKDTreeEmptyAndSingle(t *testing.T) {
	empty := NewKDTree(nil)
	if got, _ := empty.NewLiveSet().Nearest(Point{}); got != -1 {
		t.Errorf("empty tree Nearest = %d", got)
	}
	single := NewKDTree([]Point{{1, 2}})
	live := single.NewLiveSet()
	if got, tied := live.Nearest(Point{0, 0}); got != 0 || tied {
		t.Errorf("single tree Nearest = %d (tied %v), want 0", got, tied)
	}
	live.Remove(0)
	if got, _ := live.Nearest(Point{0, 0}); got != -1 {
		t.Errorf("single tree Nearest after Remove = %d, want -1", got)
	}
	if got := single.KNearest(Point{0, 0}, 5, 0); len(got) != 0 {
		t.Errorf("single tree excluding self returned %v", got)
	}
}

func TestHilbertDistinctAndLocal(t *testing.T) {
	// Adjacent lattice points must have close Hilbert indices on average;
	// the curve is a bijection so all indices in a small grid are distinct.
	seen := map[uint64]bool{}
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			d := HilbertD(4, x, y)
			if d >= 256 {
				t.Fatalf("Hilbert index %d out of range", d)
			}
			if seen[d] {
				t.Fatalf("duplicate Hilbert index %d", d)
			}
			seen[d] = true
		}
	}
}

func TestHilbertCurveIsContinuous(t *testing.T) {
	// Successive curve positions are adjacent lattice cells: invert by
	// scanning all cells of a small grid.
	order := uint(4)
	size := uint32(1) << order
	posOf := make([][2]uint32, size*size)
	for x := uint32(0); x < size; x++ {
		for y := uint32(0); y < size; y++ {
			posOf[HilbertD(order, x, y)] = [2]uint32{x, y}
		}
	}
	for d := 1; d < len(posOf); d++ {
		dx := int(posOf[d][0]) - int(posOf[d-1][0])
		dy := int(posOf[d][1]) - int(posOf[d-1][1])
		if dx*dx+dy*dy != 1 {
			t.Fatalf("curve jumps at %d: %v -> %v", d, posOf[d-1], posOf[d])
		}
	}
}

func TestHilbertKeysDegenerate(t *testing.T) {
	// All-identical points must not divide by zero.
	pts := []Point{{5, 5}, {5, 5}, {5, 5}}
	keys := HilbertKeys(pts)
	if len(keys) != 3 || keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("degenerate keys %v", keys)
	}
	if got := HilbertKeys(nil); len(got) != 0 {
		t.Fatal("nil points produced keys")
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{3, 7}, {-1, 2}, {5, 0}}
	min, max := BoundingBox(pts)
	if min.X != -1 || min.Y != 0 || max.X != 5 || max.Y != 7 {
		t.Fatalf("bbox (%v, %v)", min, max)
	}
	min, max = BoundingBox(nil)
	if min != (Point{}) || max != (Point{}) {
		t.Fatal("empty bbox not zero")
	}
}

// TestLiveSetMatchesBruteForce removes points in random order and checks,
// after every removal, that Nearest returns a live point at the brute-force
// minimum squared distance and reports a tie exactly when a second live
// point shares it. Lattices and doubled points make ties common.
func TestLiveSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lattice := func(w, h int) []Point {
		var pts []Point
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pts = append(pts, Point{X: float64(3 * x), Y: float64(3 * y)})
			}
		}
		return pts
	}
	withDuplicates := func(pts []Point) []Point {
		for i := 0; i < len(pts)/4; i++ {
			pts = append(pts, pts[rng.Intn(len(pts))])
		}
		return pts
	}
	sets := []struct {
		name string
		pts  []Point
	}{
		{"random", randomPoints(300, rng)},
		{"random+duplicates", withDuplicates(randomPoints(200, rng))},
		{"lattice", lattice(17, 13)},
		{"lattice+duplicates", withDuplicates(lattice(11, 9))},
		{"one-point-many", []Point{{2, 2}, {2, 2}, {2, 2}, {2, 2}, {7, 1}}},
	}
	for _, set := range sets {
		name, pts := set.name, set.pts
		live := NewKDTree(pts).NewLiveSet()
		alive := make([]bool, len(pts))
		for i := range alive {
			alive[i] = true
		}
		check := func(q Point) {
			best, count := math.Inf(1), 0
			for i, p := range pts {
				if !alive[i] {
					continue
				}
				switch d := SqDist(p, q); {
				case d < best:
					best, count = d, 1
				case d == best:
					count++
				}
			}
			got, tied := live.Nearest(q)
			if count == 0 {
				if got != -1 {
					t.Fatalf("%s: Nearest on an empty set = %d", name, got)
				}
				return
			}
			if got < 0 || !alive[got] || SqDist(pts[got], q) != best {
				t.Fatalf("%s: Nearest(%v) = %d, want a live point at squared distance %v", name, q, got, best)
			}
			if tied != (count > 1) {
				t.Fatalf("%s: Nearest(%v) tied = %v with %d live points at the minimum", name, q, tied, count)
			}
		}
		for _, i := range rng.Perm(len(pts)) {
			live.Remove(int32(i))
			alive[i] = false
			check(pts[i])
			check(pts[rng.Intn(len(pts))])
			check(Point{X: rng.Float64() * 60, Y: rng.Float64() * 60})
		}
	}
}
