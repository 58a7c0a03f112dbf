package tsp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"distclk/internal/geom"
)

func TestInstanceDistSymmetric(t *testing.T) {
	in := Generate(FamilyUniform, 50, 1)
	for trial := 0; trial < 100; trial++ {
		i, j := trial%50, (trial*7+3)%50
		if in.Dist(i, j) != in.Dist(j, i) {
			t.Fatalf("Dist(%d,%d) != Dist(%d,%d)", i, j, j, i)
		}
	}
}

func TestExplicitInstance(t *testing.T) {
	m := []int64{
		0, 2, 9,
		2, 0, 4,
		9, 4, 0,
	}
	in, err := NewExplicit("tri", 3, m)
	if err != nil {
		t.Fatal(err)
	}
	if in.Dist(0, 2) != 9 || in.Dist(2, 1) != 4 {
		t.Fatal("explicit lookup wrong")
	}
	if !in.Explicit() {
		t.Fatal("Explicit() false")
	}
	if _, err := NewExplicit("bad", 3, m[:8]); err == nil {
		t.Fatal("accepted short matrix")
	}
	tour := Tour{0, 1, 2}
	if got := tour.Length(in); got != 2+4+9 {
		t.Fatalf("tour length %d, want 15", got)
	}
}

func TestTourValidate(t *testing.T) {
	if err := (Tour{0, 1, 2}).Validate(3); err != nil {
		t.Error(err)
	}
	if err := (Tour{0, 1}).Validate(3); err == nil {
		t.Error("short tour accepted")
	}
	if err := (Tour{0, 1, 1}).Validate(3); err == nil {
		t.Error("duplicate accepted")
	}
	if err := (Tour{0, 1, 3}).Validate(3); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := (Tour{0, -1, 2}).Validate(3); err == nil {
		t.Error("negative accepted")
	}
}

func TestTourCanonicalInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		tour := IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { tour[i], tour[j] = tour[j], tour[i] })
		// Rotation.
		r := rng.Intn(n)
		rot := make(Tour, n)
		for i := range rot {
			rot[i] = tour[(i+r)%n]
		}
		// Reversal.
		rev := make(Tour, n)
		for i := range rev {
			rev[i] = tour[n-1-i]
		}
		return tour.SameCycle(rot) && tour.SameCycle(rev) &&
			tour.Hash() == rot.Hash() && tour.Hash() == rev.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTourSameCycleDistinguishes(t *testing.T) {
	a := Tour{0, 1, 2, 3, 4}
	b := Tour{0, 2, 1, 3, 4}
	if a.SameCycle(b) {
		t.Fatal("different cycles reported equal")
	}
	if a.SameCycle(Tour{0, 1, 2}) {
		t.Fatal("different lengths reported equal")
	}
}

func TestTSPLIBRoundTrip(t *testing.T) {
	in := Generate(FamilyUniform, 30, 5)
	var buf bytes.Buffer
	if err := WriteTSPLIB(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSPLIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 30 || got.Metric != geom.Euc2D {
		t.Fatalf("round trip: n=%d metric=%v", got.N(), got.Metric)
	}
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			if got.Dist(i, j) != in.Dist(i, j) {
				t.Fatalf("distance (%d,%d) changed in round trip", i, j)
			}
		}
	}
}

func TestReadTSPLIBExplicitFormats(t *testing.T) {
	upperRow := `NAME: t3
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: UPPER_ROW
EDGE_WEIGHT_SECTION
2 9
4
EOF`
	in, err := ReadTSPLIB(strings.NewReader(upperRow))
	if err != nil {
		t.Fatal(err)
	}
	if in.Dist(0, 1) != 2 || in.Dist(0, 2) != 9 || in.Dist(1, 2) != 4 {
		t.Fatal("UPPER_ROW parsed wrong")
	}

	fullMatrix := `NAME: t3
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 2 9 2 0 4 9 4 0
EOF`
	in2, err := ReadTSPLIB(strings.NewReader(fullMatrix))
	if err != nil {
		t.Fatal(err)
	}
	if in2.Dist(2, 0) != 9 {
		t.Fatal("FULL_MATRIX parsed wrong")
	}

	lowerDiag := `NAME: t3
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
2 0
9 4 0
EOF`
	in3, err := ReadTSPLIB(strings.NewReader(lowerDiag))
	if err != nil {
		t.Fatal(err)
	}
	if in3.Dist(0, 2) != 9 || in3.Dist(1, 2) != 4 {
		t.Fatal("LOWER_DIAG_ROW parsed wrong")
	}
}

func TestReadTSPLIBErrors(t *testing.T) {
	const (
		explicit3 = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: "
		coords2   = "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n"
	)
	cases := []string{
		"TYPE: ATSP\nDIMENSION: 3\n",                                 // asymmetric
		"DIMENSION: x\n",                                             // bad dimension
		"EDGE_WEIGHT_TYPE: EUC_3D\nDIMENSION: 3\n",                   // unsupported metric
		"EDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n", // missing dimension
		// Values whose distances could be negative, asymmetric or
		// overflow a tour length.
		explicit3 + "UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 -2 3\n",                  // negative weight
		explicit3 + "UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2 9223372036854775807\n", // huge weight
		explicit3 + "FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2 1 0 3 2 4 0\n",     // asymmetric
		explicit3 + "FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2 1 0\n",             // short section
		coords2 + "2 NaN 0\n",   // NaN coordinate
		coords2 + "2 0 +Inf\n",  // Inf coordinate
		coords2 + "2 1e300 0\n", // huge coordinate
		"DIMENSION: 9223372036854775807\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n", // n*n overflows
	}
	for i, src := range cases {
		if _, err := ReadTSPLIB(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadTSPLIBGeoAndAtt(t *testing.T) {
	src := `NAME: geo2
TYPE: TSP
DIMENSION: 2
EDGE_WEIGHT_TYPE: GEO
NODE_COORD_SECTION
1 50.0 8.0
2 51.0 8.0
EOF`
	in, err := ReadTSPLIB(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.Metric != geom.Geo {
		t.Fatalf("metric %v", in.Metric)
	}
	if d := in.Dist(0, 1); d < 105 || d > 120 {
		t.Fatalf("geo distance %d", d)
	}
}

func TestTourFileRoundTrip(t *testing.T) {
	tour := Tour{4, 2, 0, 3, 1}
	var buf bytes.Buffer
	if err := WriteTourFile(&buf, "test", tour); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTourFile(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tour {
		if got[i] != tour[i] {
			t.Fatalf("tour file round trip: %v != %v", got, tour)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, f := range []Family{FamilyUniform, FamilyClustered, FamilyDrill, FamilyGrid, FamilyNational} {
		a := Generate(f, 200, 7)
		b := Generate(f, 200, 7)
		c := Generate(f, 200, 8)
		if a.N() != 200 {
			t.Fatalf("%v: n=%d", f, a.N())
		}
		for i := range a.Pts {
			if a.Pts[i] != b.Pts[i] {
				t.Fatalf("%v: same seed differs at %d", f, i)
			}
		}
		same := true
		for i := range a.Pts {
			if a.Pts[i] != c.Pts[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v: different seeds produced identical instances", f)
		}
	}
}

func TestGenerateFamiliesHaveDistinctCharacter(t *testing.T) {
	// Clustered instances have much lower mean nearest-neighbour distance
	// than uniform at equal n (points concentrate).
	uni := Generate(FamilyUniform, 500, 3)
	clu := Generate(FamilyClustered, 500, 3)
	mean := func(in *Instance) float64 {
		var sum float64
		for i := 0; i < in.N(); i++ {
			best := int64(1 << 62)
			for j := 0; j < in.N(); j++ {
				if i != j {
					if d := in.Dist(i, j); d < best {
						best = d
					}
				}
			}
			sum += float64(best)
		}
		return sum / float64(in.N())
	}
	mu, mc := mean(uni), mean(clu)
	if mc*2 > mu {
		t.Fatalf("clustered NN distance %.0f not far below uniform %.0f", mc, mu)
	}
}

func TestParseFamily(t *testing.T) {
	for _, f := range []Family{FamilyUniform, FamilyClustered, FamilyDrill, FamilyGrid, FamilyNational} {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFamily("fractal"); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestStandInNames(t *testing.T) {
	for _, name := range []string{"E1k.1", "C1k.1", "fl1577", "pr2392", "fi10639"} {
		in, err := StandIn(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if in.N() == 0 {
			t.Fatalf("%s: empty instance", name)
		}
	}
	if _, err := StandIn("nonexistent99", 1); err == nil {
		t.Error("unknown stand-in accepted")
	}
	// Stand-in sizes must match the paper's instance names.
	in, _ := StandIn("fl3795", 1)
	if in.N() != 3795 {
		t.Errorf("fl3795 stand-in has %d cities", in.N())
	}
}
