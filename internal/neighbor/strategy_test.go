package neighbor

import (
	"math/rand"
	"strings"
	"testing"

	"distclk/internal/geom"
	"distclk/internal/tsp"
)

// TestStrategyRegistry pins the registry contract: fixed order, lookup by
// name, "auto" is not a registered strategy but appears in the flag names.
func TestStrategyRegistry(t *testing.T) {
	want := []string{"knn", "quadrant", "alpha", "delaunay"}
	got := Strategies()
	if len(got) != len(want) {
		t.Fatalf("registry has %d strategies, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, s.Name, want[i])
		}
		if s.Doc == "" || s.Cost == "" || s.Build == nil {
			t.Errorf("strategy %q missing Doc/Cost/Build", s.Name)
		}
		byName, err := ByName(s.Name)
		if err != nil || byName.Name != s.Name {
			t.Errorf("ByName(%q) = %v, %v", s.Name, byName.Name, err)
		}
	}
	if _, err := ByName("auto"); err == nil {
		t.Error("ByName(auto) should fail: auto is a selector, not a builder")
	}
	if _, err := ByName("voronoi"); err == nil || !strings.Contains(err.Error(), "voronoi") {
		t.Errorf("unknown name: got %v, want error naming it", err)
	}
	names := StrategyNames()
	if names[0] != "auto" || len(names) != len(want)+1 {
		t.Errorf("StrategyNames() = %v", names)
	}
}

// TestStrategyDistanceTablesMatchInstance extends the knn/quadrant
// six-metric cross-check to the two new builders: for every supported
// metric, every stored (city, candidate) distance must agree exactly with
// Instance.Dist, and the full Lists contract must validate. This is the
// guarantee that lets dive() stay a pure table read whichever strategy
// built the lists.
func TestStrategyDistanceTablesMatchInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	metrics := []geom.MetricKind{geom.Euc2D, geom.Ceil2D, geom.Att, geom.Geo, geom.Man2D, geom.Max2D}
	for _, m := range metrics {
		t.Run(m.String(), func(t *testing.T) {
			n := 150
			pts := make([]geom.Point, n)
			for i := range pts {
				if m == geom.Geo {
					// Latitude/longitude in TSPLIB DDD.MM encoding.
					pts[i] = geom.Point{X: rng.Float64()*140 - 70, Y: rng.Float64()*300 - 150}
				} else {
					pts[i] = geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
				}
			}
			in := tsp.New("strat-"+m.String(), m, pts)
			for _, s := range Strategies() {
				l, err := s.Build(in, 8)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if err := l.Validate(in); err != nil {
					t.Errorf("%s: %v", s.Name, err)
				}
				for c := int32(0); c < int32(n); c++ {
					cand, d := l.Cand(c)
					for i, o := range cand {
						if want := in.Dist(int(c), int(o)); d[i] != want {
							t.Fatalf("%s: table dist(%d,%d) = %d, Instance.Dist = %d", s.Name, c, o, d[i], want)
						}
					}
				}
			}
		})
	}
}

// TestBuildDelaunayRejectsExplicit: matrix-only instances have no
// coordinates to triangulate.
func TestBuildDelaunayRejectsExplicit(t *testing.T) {
	in, err := tsp.NewExplicit("m4", 4, []int64{
		0, 1, 2, 3,
		1, 0, 4, 5,
		2, 4, 0, 6,
		3, 5, 6, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildDelaunay(in, 8); err == nil || !strings.Contains(err.Error(), "matrix-only") {
		t.Errorf("got %v, want matrix-only error", err)
	}
}

// TestBuildDelaunayDuplicatePoints: co-located cities (the clustered
// generator clamps outliers to the domain boundary; TSPLIB files repeat
// rows) must not abort the build. Duplicates are grafted onto their
// representative's neighbourhood, and the result still satisfies the full
// Lists contract.
func TestBuildDelaunayDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 0, 130)
	for i := 0; i < 120; i++ {
		pts = append(pts, geom.Point{X: rng.Float64() * 1e6, Y: rng.Float64() * 1e6})
	}
	// Three cities on one corner (a duplicate group) and one repeated
	// interior point.
	corner := geom.Point{X: 1e6, Y: 1e6}
	pts = append(pts, corner, corner, corner, pts[17])
	in := tsp.New("dup", geom.Euc2D, pts)
	l, err := BuildDelaunay(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(in); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < in.N(); c++ {
		if ids, _ := l.Cand(int32(c)); len(ids) == 0 {
			t.Errorf("city %d has no candidates", c)
		}
	}
	// A duplicate's first candidate is its zero-distance representative.
	ids, ds := l.Cand(121)
	if ds[0] != 0 || ids[0] != 120 {
		t.Errorf("duplicate city 121: first candidate %d at distance %d, want 120 at 0", ids[0], ds[0])
	}
}

// TestAutoPolicy pins the selector's verdict on the synthetic families and
// the degenerate cases. The thresholds live in Auto; tsp.Describe's
// separating power is pinned in internal/tsp.
func TestAutoPolicy(t *testing.T) {
	cases := []struct {
		name     string
		st       tsp.Stats
		strategy string
		relaxed  bool
	}{
		{"explicit", tsp.Stats{N: 5000, Explicit: true}, "knn", false},
		{"tiny", tsp.Stats{N: 32}, "knn", false},
		{"clustered", tsp.Stats{N: 5000, ClusterCV: 4.2}, "quadrant", false},
		{"lattice", tsp.Stats{N: 5000, AxisDegeneracy: 0.9}, "delaunay", true},
		{"uniform", tsp.Stats{N: 5000, ClusterCV: 1.0}, "delaunay", false},
	}
	for _, c := range cases {
		ch := Auto(c.st)
		if ch.Strategy != c.strategy {
			t.Errorf("%s: Auto picked %q, want %q", c.name, ch.Strategy, c.strategy)
		}
		if (ch.RelaxDepth > 0) != c.relaxed {
			t.Errorf("%s: RelaxDepth = %d, relaxed want %v", c.name, ch.RelaxDepth, c.relaxed)
		}
		if ch.Reason == "" {
			t.Errorf("%s: empty Reason", c.name)
		}
		if _, err := ByName(ch.Strategy); err != nil {
			t.Errorf("%s: Auto picked unregistered strategy %q", c.name, ch.Strategy)
		}
	}
}

// TestSelectAutoEndToEnd: Select("auto") must produce valid lists on every
// generator family, and the choice must match Auto over Describe.
func TestSelectAutoEndToEnd(t *testing.T) {
	for _, fam := range []tsp.Family{tsp.FamilyUniform, tsp.FamilyClustered, tsp.FamilyDrill, tsp.FamilyGrid} {
		in := tsp.Generate(fam, 600, 7)
		l, ch, err := Select(in, "auto", 8)
		if err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		if want := Auto(tsp.Describe(in)); ch.Strategy != want.Strategy {
			t.Errorf("%v: Select chose %q, Auto says %q", fam, ch.Strategy, want.Strategy)
		}
		if err := l.Validate(in); err != nil {
			t.Errorf("%v (%s): %v", fam, ch.Strategy, err)
		}
	}
	// Unknown names surface an error.
	if _, _, err := Select(tsp.Generate(tsp.FamilyUniform, 64, 1), "voronoi", 8); err == nil {
		t.Error("unknown strategy: want error")
	}
	// An explicit request for a coordinate strategy on a matrix instance
	// fails; auto on the same instance falls back to knn.
	ex, err := tsp.NewExplicit("m3", 3, []int64{0, 2, 3, 2, 0, 4, 3, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Select(ex, "delaunay", 8); err == nil {
		t.Error("delaunay on explicit: want error")
	}
	l, ch, err := Select(ex, "auto", 2)
	if err != nil || ch.Strategy != "knn" {
		t.Fatalf("auto on explicit: %v %v", ch, err)
	}
	if err := l.Validate(ex); err != nil {
		t.Error(err)
	}
}

// TestSelectDeterministic: two Select("auto") calls on the same instance
// produce byte-identical CSR arrays.
func TestSelectDeterministic(t *testing.T) {
	in := tsp.Generate(tsp.FamilyClustered, 800, 5)
	a, _, err := Select(in, "auto", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Select(in, "auto", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.K() != b.K() {
		t.Fatal("shape differs between runs")
	}
	for c := int32(0); c < int32(a.N()); c++ {
		ca, da := a.Cand(c)
		cb, db := b.Cand(c)
		if len(ca) != len(cb) {
			t.Fatalf("city %d: list length differs", c)
		}
		for i := range ca {
			if ca[i] != cb[i] || da[i] != db[i] {
				t.Fatalf("city %d rank %d differs between runs", c, i)
			}
		}
	}
}
