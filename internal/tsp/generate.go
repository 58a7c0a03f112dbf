package tsp

import (
	"fmt"
	"math"
	"math/rand"

	"distclk/internal/geom"
)

// Family identifies a synthetic instance family. The families mirror the
// structure of the paper's testbed (DESIGN.md §2): TSPLIB files are not
// redistributable, so seeded generators produce stand-ins with the same
// geometric character.
type Family int

const (
	// FamilyUniform scatters cities uniformly in a square, like the DIMACS
	// random uniform Euclidean instances (E1k.1, ...).
	FamilyUniform Family = iota
	// FamilyClustered places cities normally around cluster centres, like
	// the DIMACS clustered instances (C1k.1, ...).
	FamilyClustered
	// FamilyDrill mimics PCB-drilling instances (fl1577, fl3795): dense
	// grids of collinear holes grouped into boards separated by large empty
	// regions — the structure that traps plain CLK in deep local optima.
	FamilyDrill
	// FamilyGrid is a jittered rectangular grid, like pr2392/pcb3038.
	FamilyGrid
	// FamilyNational mixes dense population clusters with sparse uniform
	// background, like the national instances (fi10639, sw24978).
	FamilyNational
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilyUniform:
		return "uniform"
	case FamilyClustered:
		return "clustered"
	case FamilyDrill:
		return "drill"
	case FamilyGrid:
		return "grid"
	case FamilyNational:
		return "national"
	}
	return "unknown"
}

// ParseFamily maps a family name to its constant.
func ParseFamily(s string) (Family, error) {
	for _, f := range []Family{FamilyUniform, FamilyClustered, FamilyDrill, FamilyGrid, FamilyNational} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("tsp: unknown family %q", s)
}

const genSide = 1_000_000.0 // coordinate span, DIMACS convention

// Generate produces a deterministic synthetic instance of the family with n
// cities from the given seed.
func Generate(f Family, n int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	var pts []geom.Point
	switch f {
	case FamilyUniform:
		pts = genUniform(rng, n)
	case FamilyClustered:
		pts = genClustered(rng, n, 10)
	case FamilyDrill:
		pts = genDrill(rng, n)
	case FamilyGrid:
		pts = genGrid(rng, n)
	case FamilyNational:
		pts = genNational(rng, n)
	default:
		//lint:ignore nopanic Family is a closed enum validated by ParseFamily; an unknown value is a programming error with no recovery
		panic("tsp: unknown family")
	}
	name := fmt.Sprintf("%s%d-s%d", f, n, seed)
	in := New(name, geom.Euc2D, pts)
	in.Comment = fmt.Sprintf("synthetic %s family stand-in, n=%d seed=%d", f, n, seed)
	return in
}

func genUniform(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * genSide, Y: rng.Float64() * genSide}
	}
	return pts
}

func genClustered(rng *rand.Rand, n, clusters int) []geom.Point {
	centers := make([]geom.Point, clusters)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * genSide, Y: rng.Float64() * genSide}
	}
	sigma := genSide / (10 * math.Sqrt(float64(clusters)))
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		pts[i] = geom.Point{
			X: clamp(c.X+rng.NormFloat64()*sigma, 0, genSide),
			Y: clamp(c.Y+rng.NormFloat64()*sigma, 0, genSide),
		}
	}
	return pts
}

// genDrill builds PCB-drilling boards in the style of TSPLIB's fl
// instances: each board is a *perfectly regular* lattice of holes (exact
// spacing — the resulting massive cost degeneracy creates the flat, deep
// local optima that trap plain CLK on fl1577/fl3795), and boards sit in
// cells of a macro-grid separated by large empty regions, so the global
// board-crossing routing matters.
func genDrill(rng *rand.Rand, n int) []geom.Point {
	// Macro-grid of 3x3 cells; use 5-7 of them as boards.
	boards := 5 + rng.Intn(3)
	cells := rng.Perm(9)[:boards]
	cell := genSide / 3
	margin := cell * 0.28 // empty border inside each cell

	pts := make([]geom.Point, 0, n)
	perBoard := n / boards
	for b := 0; b < boards; b++ {
		count := perBoard
		if b == boards-1 {
			count = n - len(pts)
		}
		ox := float64(cells[b]%3)*cell + margin
		oy := float64(cells[b]/3)*cell + margin
		w := cell - 2*margin
		h := cell - 2*margin
		// Regular lattice, rows twice as far apart as holes within a row
		// (drilling rows), rounded to hold exactly `count` holes.
		cols := int(math.Max(2, math.Ceil(math.Sqrt(float64(count)*2))))
		rows := (count + cols - 1) / cols
		placed := 0
		for r := 0; r < rows && placed < count; r++ {
			y := oy + h*float64(r)/math.Max(1, float64(rows-1))
			for c := 0; c < cols && placed < count; c++ {
				x := ox + w*float64(c)/math.Max(1, float64(cols-1))
				pts = append(pts, geom.Point{X: x, Y: y})
				placed++
			}
		}
	}
	// Collapse accidental duplicates (degenerate tiny boards) by nudging.
	seen := make(map[geom.Point]bool, n)
	for i := range pts {
		for seen[pts[i]] {
			pts[i].X += 1
		}
		seen[pts[i]] = true
	}
	return pts
}

func genGrid(rng *rand.Rand, n int) []geom.Point {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	cell := genSide / float64(cols)
	jitter := cell * 0.25
	pts := make([]geom.Point, 0, n)
	for i := 0; len(pts) < n; i++ {
		r, c := i/cols, i%cols
		pts = append(pts, geom.Point{
			X: (float64(c)+0.5)*cell + (rng.Float64()*2-1)*jitter,
			Y: (float64(r)+0.5)*cell + (rng.Float64()*2-1)*jitter,
		})
	}
	return pts
}

func genNational(rng *rand.Rand, n int) []geom.Point {
	clusters := 20 + rng.Intn(20)
	centers := make([]geom.Point, clusters)
	weights := make([]float64, clusters)
	var total float64
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * genSide, Y: rng.Float64() * genSide}
		weights[i] = math.Pow(rng.Float64(), 2) // few big cities, many small
		total += weights[i]
	}
	sigma := genSide / 60
	pts := make([]geom.Point, n)
	for i := range pts {
		if rng.Float64() < 0.3 { // rural background
			pts[i] = geom.Point{X: rng.Float64() * genSide, Y: rng.Float64() * genSide}
			continue
		}
		r := rng.Float64() * total
		k := 0
		for ; k < clusters-1 && r > weights[k]; k++ {
			r -= weights[k]
		}
		pts[i] = geom.Point{
			X: clamp(centers[k].X+rng.NormFloat64()*sigma, 0, genSide),
			Y: clamp(centers[k].Y+rng.NormFloat64()*sigma, 0, genSide),
		}
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// StandIn returns the synthetic stand-in for a paper testbed instance name
// (e.g. "fl3795" -> drill family with 3795 cities). Unknown names are an
// error. The seed fixes geometry so repeated calls agree across processes.
func StandIn(paperName string, seed int64) (*Instance, error) {
	fam, n, err := PaperInstance(paperName)
	if err != nil {
		return nil, err
	}
	in := Generate(fam, n, seed)
	in.Name = paperName + "-standin"
	in.Comment = fmt.Sprintf("stand-in for %s: %s family, n=%d seed=%d", paperName, fam, n, seed)
	return in, nil
}

// PaperInstance is the paper's testbed table: the synthetic family that
// stands in for a paper instance name, and the instance's full size.
func PaperInstance(name string) (Family, int, error) {
	switch name {
	case "E1k.1":
		return FamilyUniform, 1000, nil
	case "C1k.1":
		return FamilyClustered, 1000, nil
	case "fl1577":
		return FamilyDrill, 1577, nil
	case "fl3795":
		return FamilyDrill, 3795, nil
	case "pr2392":
		return FamilyGrid, 2392, nil
	case "pcb3038":
		return FamilyGrid, 3038, nil
	case "fnl4461":
		return FamilyGrid, 4461, nil
	case "fi10639":
		return FamilyNational, 10639, nil
	case "usa13509":
		return FamilyNational, 13509, nil
	case "sw24978":
		return FamilyNational, 24978, nil
	case "pla33810":
		return FamilyDrill, 33810, nil
	case "pla85900":
		return FamilyDrill, 85900, nil
	}
	return 0, 0, fmt.Errorf("tsp: no stand-in defined for %q", name)
}
