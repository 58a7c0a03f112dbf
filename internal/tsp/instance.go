package tsp

import (
	"fmt"
	"math"
	"sync/atomic"

	"distclk/internal/geom"
	"distclk/internal/par"
)

// Instance is a symmetric TSP instance. Geometric instances carry point
// coordinates and a metric; EXPLICIT instances carry a full distance matrix.
type Instance struct {
	Name    string
	Comment string
	Metric  geom.MetricKind
	Pts     []geom.Point

	// BestKnown is the optimal (or best known) tour length, 0 when unknown.
	BestKnown int64

	// CacheLimit, when positive, overrides MaxCacheN as the city-count
	// ceiling for CacheMatrix. Set it deliberately before asking for a
	// quadratic matrix on a large instance.
	CacheLimit int

	// explicit holds the row-major n*n matrix for EXPLICIT instances.
	explicit []int64
	// cache holds an optional precomputed matrix for geometric instances.
	cache []int32
	n     int
}

// New creates a geometric instance over the given points.
func New(name string, metric geom.MetricKind, pts []geom.Point) *Instance {
	return &Instance{Name: name, Metric: metric, Pts: pts, n: len(pts)}
}

// NewExplicit creates an instance from a full n-by-n distance matrix.
// The matrix must be symmetric; Dist returns matrix[i*n+j].
func NewExplicit(name string, n int, matrix []int64) (*Instance, error) {
	if len(matrix) != n*n {
		return nil, fmt.Errorf("tsp: explicit matrix has %d entries, want %d", len(matrix), n*n)
	}
	return &Instance{Name: name, explicit: matrix, n: n}, nil
}

// N reports the number of cities.
func (in *Instance) N() int { return in.n }

// Explicit reports whether the instance is matrix-backed (no coordinates).
func (in *Instance) Explicit() bool { return in.explicit != nil }

// Dist returns the distance between cities i and j.
func (in *Instance) Dist(i, j int) int64 {
	if in.explicit != nil {
		return in.explicit[i*in.n+j]
	}
	if in.cache != nil {
		return int64(in.cache[i*in.n+j])
	}
	return in.Metric.Dist(in.Pts[i], in.Pts[j])
}

// DistCached is true once CacheMatrix has run (or the instance is EXPLICIT).
func (in *Instance) DistCached() bool { return in.cache != nil || in.explicit != nil }

// MaxCacheN bounds CacheMatrix by default: above this size the quadratic
// matrix is too large to be worth the memory (n^2 * 4 bytes). Set
// Instance.CacheLimit to raise or lower the ceiling per instance.
const MaxCacheN = 3000

// CacheMatrix precomputes the full distance matrix for geometric instances,
// turning Dist into an array lookup. It refuses — with an error naming the
// would-be allocation — instances above the cache limit (MaxCacheN, or
// Instance.CacheLimit when set) instead of silently allocating gigabytes;
// Dist and DistFunc keep evaluating the metric directly in that case, so a
// refusal is never fatal. Matrix rows are computed in parallel across
// GOMAXPROCS workers. It is a no-op for EXPLICIT or already-cached
// instances. A distance above MaxInt32 (no realistic TSPLIB instance)
// makes the whole matrix unrepresentable and is reported as an error.
func (in *Instance) CacheMatrix() error {
	if in.explicit != nil || in.cache != nil {
		return nil
	}
	limit := in.CacheLimit
	if limit <= 0 {
		limit = MaxCacheN
	}
	if in.n > limit {
		return fmt.Errorf("tsp: CacheMatrix refused for %q: %d cities exceeds limit %d (matrix would need %d MiB); Dist falls back to metric evaluation",
			in.Name, in.n, limit, int64(in.n)*int64(in.n)*4>>20)
	}
	n := in.n
	c := make([]int32, n*n)
	var overflow atomic.Bool
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Each worker owns rows [lo,hi); the symmetric writes c[j*n+i]
			// land in cells no other worker touches (each unordered pair is
			// written by the owner of its smaller index only).
			for j := i + 1; j < n; j++ {
				d := in.Metric.Dist(in.Pts[i], in.Pts[j])
				if d > 1<<31-1 {
					overflow.Store(true)
					return
				}
				c[i*n+j] = int32(d)
				c[j*n+i] = int32(d)
			}
		}
	})
	if overflow.Load() {
		return fmt.Errorf("tsp: CacheMatrix refused for %q: a distance overflows the int32 cache", in.Name)
	}
	in.cache = c
	return nil
}

// DistFunc returns a closure evaluating distances, binding the fastest
// available path once: matrix lookup when cached, otherwise a
// metric-specialized closure that skips the per-call metric dispatch.
func (in *Instance) DistFunc() func(i, j int32) int64 {
	switch {
	case in.explicit != nil:
		m, n := in.explicit, in.n
		return func(i, j int32) int64 { return m[int(i)*n+int(j)] }
	case in.cache != nil:
		m, n := in.cache, in.n
		return func(i, j int32) int64 { return int64(m[int(i)*n+int(j)]) }
	default:
		pts, metric := in.Pts, in.Metric
		switch metric {
		case geom.Euc2D:
			return func(i, j int32) int64 {
				a, b := pts[i], pts[j]
				dx, dy := a.X-b.X, a.Y-b.Y
				return int64(math.Sqrt(dx*dx+dy*dy) + 0.5)
			}
		case geom.Ceil2D:
			return func(i, j int32) int64 {
				a, b := pts[i], pts[j]
				dx, dy := a.X-b.X, a.Y-b.Y
				return int64(math.Ceil(math.Sqrt(dx*dx + dy*dy)))
			}
		default:
			return func(i, j int32) int64 { return metric.Dist(pts[i], pts[j]) }
		}
	}
}
