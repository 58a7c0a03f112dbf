package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"distclk/internal/geom"
	"distclk/internal/tsp"
)

// The benchmark owns its input generators, so a change to the program's
// own instance generators cannot move the benchmark's inputs. Coordinates
// are integers, so the inline and TSPLIB forms of one instance are the
// same instance.

const side = 1_000_000

type point struct{ X, Y int64 }

// family is an input family; each one steers neighbor.Auto to a different
// candidate strategy (see README.md).
type family int

const (
	uniform   family = iota // continuous geometry: delaunay
	clustered               // strongly clustered: quadrant
	drill                   // lattice boards: delaunay + relaxed gain
)

func (f family) String() string {
	return [...]string{"uniform", "clustered", "drill"}[f]
}

// rngFor derives an independent stream for one use of the workload seed.
func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func generate(f family, n int, rng *rand.Rand) []point {
	switch f {
	case clustered:
		return genClustered(n, rng)
	case drill:
		return genDrill(n, rng)
	}
	return genUniform(n, rng)
}

func genUniform(n int, rng *rand.Rand) []point {
	pts := make([]point, n)
	for i := range pts {
		pts[i] = point{rng.Int63n(side), rng.Int63n(side)}
	}
	return pts
}

// genClustered draws points around 10 centres with a spread small enough
// that grid-cell occupancy is very uneven.
func genClustered(n int, rng *rand.Rand) []point {
	const clusters = 10
	var centers [clusters][2]float64
	for i := range centers {
		centers[i] = [2]float64{rng.Float64() * side, rng.Float64() * side}
	}
	sigma := side / 150.0
	pts := make([]point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		pts[i] = point{
			clampCoord(c[0] + rng.NormFloat64()*sigma),
			clampCoord(c[1] + rng.NormFloat64()*sigma),
		}
	}
	return pts
}

func clampCoord(v float64) int64 {
	return int64(math.Max(0, math.Min(side-1, math.Round(v))))
}

// genDrill lays out six drilling boards in the cells of the top two rows
// of a 3x3 macro grid. Each board is an exact lattice (holes in a row one
// pitch apart, rows two pitches apart): the equal-length plateaus that
// make drilling instances hard for plain CLK. The seed shifts each board
// inside its cell; board count, cells and lattice shape stay fixed, so the
// work and the tour length vary little from seed to seed.
func genDrill(n int, rng *rand.Rand) []point {
	const boards = 6
	cell := int64(side / 3)
	pts := make([]point, 0, n)
	for b := int64(0); b < boards; b++ {
		count := n / boards
		if b == boards-1 {
			count = n - len(pts)
		}
		cols := int64(math.Ceil(math.Sqrt(2 * float64(count))))
		pitch := cell / 2 / cols
		ox := b%3*cell + cell/8 + rng.Int63n(cell/8)
		oy := b/3*cell + cell/8 + rng.Int63n(cell/8)
		for i := int64(0); i < int64(count); i++ {
			pts = append(pts, point{ox + i%cols*pitch, oy + i/cols*2*pitch})
		}
	}
	return pts
}

// toInstance hands the generated points to the program.
func toInstance(name string, pts []point) *tsp.Instance {
	gp := make([]geom.Point, len(pts))
	for i, p := range pts {
		gp[i] = geom.Point{X: float64(p.X), Y: float64(p.Y)}
	}
	return tsp.New(name, geom.Euc2D, gp)
}

// tsplib renders an instance as a TSPLIB EUC_2D upload.
func tsplib(name string, pts []point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "NAME : %s\nTYPE : TSP\nDIMENSION : %d\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n", name, len(pts))
	for i, p := range pts {
		fmt.Fprintf(&b, "%d %d %d\n", i+1, p.X, p.Y)
	}
	b.WriteString("EOF\n")
	return b.String()
}
