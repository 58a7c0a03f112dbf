package tsp

import (
	"fmt"
	"math"
	"sync"

	"distclk/internal/geom"
)

// Instance is a symmetric TSP instance. Geometric instances carry point
// coordinates and a metric; EXPLICIT instances carry a full distance matrix.
// Pts must not change once KDTree has been called.
type Instance struct {
	Name    string
	Comment string
	Metric  geom.MetricKind
	Pts     []geom.Point

	// explicit holds the row-major n*n matrix for EXPLICIT instances.
	explicit []int64
	n        int

	treeOnce sync.Once
	tree     *geom.KDTree
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

// KDTree returns the k-d tree over Pts. It is built on the first call, by
// exactly one caller even when many goroutines make that call at once, and
// shared by every caller after that: a node restarting from a
// nearest-neighbour tour and the candidate builders pay for it once per
// instance. An EXPLICIT instance has no points and gets an empty tree.
func (in *Instance) KDTree() *geom.KDTree {
	in.treeOnce.Do(func() { in.tree = geom.NewKDTree(in.Pts) })
	return in.tree
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
	return in.Metric.Dist(in.Pts[i], in.Pts[j])
}

// DistFunc returns a closure evaluating distances, binding the fastest
// available path once: matrix lookup for EXPLICIT instances, otherwise a
// metric-specialized closure that skips the per-call metric dispatch.
func (in *Instance) DistFunc() func(i, j int32) int64 {
	switch {
	case in.explicit != nil:
		m, n := in.explicit, in.n
		return func(i, j int32) int64 { return m[int(i)*n+int(j)] }
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
