package neighbor

import (
	"fmt"
	"sort"

	"distclk/internal/geom"
	"distclk/internal/par"
	"distclk/internal/tsp"
)

// Lists holds candidate neighbour lists for every city in CSR form, each
// list sorted by increasing instance distance (ties by city id). Local
// search only considers candidate edges, which is what makes Lin-Kernighan
// subquadratic in practice. Lists built by Build/BuildQuadrant are uniform
// (every city has exactly K candidates); FromEdges lists are ragged.
//
// Invariants, asserted at build time: no self-edges, no duplicates, and
// per-city distances ascending — dive()'s gain-criterion early break
// depends on the ascending order.
type Lists struct {
	k    int     // maximum per-city list length
	n    int     // number of cities
	off  []int32 // len n+1; city c's candidates are flat[off[c]:off[c+1]]
	flat []int32 // candidate cities, sorted by ascending distance per city
	dist []int64 // dist[i] = instance distance(owner city, flat[i])
}

// K reports the maximum per-city list length (the exact length for
// Build/BuildQuadrant lists).
func (l *Lists) K() int { return l.k }

// N reports the number of cities.
func (l *Lists) N() int { return l.n }

// Len reports city's list length.
func (l *Lists) Len(city int32) int { return int(l.off[city+1] - l.off[city]) }

// Of returns city's candidates ordered by increasing distance. The returned
// slice aliases internal storage; callers must not modify it.
func (l *Lists) Of(city int32) []int32 {
	return l.flat[l.off[city]:l.off[city+1]]
}

// Cand returns city's candidates and their precomputed distances in one
// call — the hot-path accessor used by the LK inner loop.
func (l *Lists) Cand(city int32) ([]int32, []int64) {
	lo, hi := l.off[city], l.off[city+1]
	return l.flat[lo:hi], l.dist[lo:hi]
}

// Validate checks every build-time invariant plus agreement of the stored
// distance table with in.Dist for every stored pair. Builders assert the
// structural part automatically; tests use Validate for the full check.
func (l *Lists) Validate(in *tsp.Instance) error {
	if err := l.validateStructure(); err != nil {
		return err
	}
	for c := 0; c < l.n; c++ {
		ci := int32(c)
		cand, d := l.Cand(ci)
		for i, o := range cand {
			if want := in.Dist(c, int(o)); d[i] != want {
				return fmt.Errorf("neighbor: city %d candidate %d: stored distance %d, instance says %d", c, o, d[i], want)
			}
		}
	}
	return nil
}

// validateStructure asserts offsets, self-edges, duplicates, bounds and
// ascending distances in O(n + total candidates).
func (l *Lists) validateStructure() error {
	if len(l.off) != l.n+1 || len(l.flat) != len(l.dist) || int(l.off[l.n]) != len(l.flat) {
		return fmt.Errorf("neighbor: inconsistent CSR arrays (n=%d off=%d flat=%d dist=%d)", l.n, len(l.off), len(l.flat), len(l.dist))
	}
	stamp := make([]int32, l.n) // stamp[o] == c+1 iff o already seen for city c
	for c := 0; c < l.n; c++ {
		ci := int32(c)
		if l.off[c] > l.off[c+1] {
			return fmt.Errorf("neighbor: city %d has negative list length", c)
		}
		cand, d := l.Cand(ci)
		for i, o := range cand {
			if o < 0 || int(o) >= l.n {
				return fmt.Errorf("neighbor: city %d candidate %d out of range", c, o)
			}
			if o == ci {
				return fmt.Errorf("neighbor: city %d lists itself", c)
			}
			if stamp[o] == ci+1 {
				return fmt.Errorf("neighbor: city %d lists %d twice", c, o)
			}
			stamp[o] = ci + 1
			if i > 0 && d[i] < d[i-1] {
				return fmt.Errorf("neighbor: city %d candidates not ascending at rank %d", c, i)
			}
		}
	}
	return nil
}

func (l *Lists) mustValidate() {
	if err := l.validateStructure(); err != nil {
		panic(err.Error())
	}
}

// candDist pairs a candidate with its precomputed instance distance.
type candDist struct {
	c int32
	d int64
}

// sortCands orders by (distance, id) — the tie-break every builder uses.
func sortCands(s []candDist) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].d != s[j].d {
			return s[i].d < s[j].d
		}
		return s[i].c < s[j].c
	})
}

// newUniform builds a Lists where every city has exactly k candidates.
func newUniform(n, k int) *Lists {
	l := &Lists{
		k:    k,
		n:    n,
		off:  make([]int32, n+1),
		flat: make([]int32, n*k),
		dist: make([]int64, n*k),
	}
	for c := 0; c <= n; c++ {
		l.off[c] = int32(c * k)
	}
	return l
}

// fill writes city's sorted candidate pairs into the CSR arrays.
func (l *Lists) fill(city int32, pairs []candDist) {
	base := l.off[city]
	for i, p := range pairs {
		l.flat[base+int32(i)] = p.c
		l.dist[base+int32(i)] = p.d
	}
}

// Build constructs k-nearest-neighbour candidate lists with precomputed
// distances. k is clamped to n-1. Construction is parallel across
// GOMAXPROCS workers (the k-d tree is built once and queried read-only).
func Build(in *tsp.Instance, k int) *Lists {
	n := in.N()
	if k > n-1 {
		k = n - 1
	}
	if k < 1 {
		k = 1
	}
	l := newUniform(n, k)
	dist := in.DistFunc()
	if in.Explicit() || n <= 64 {
		par.For(n, func(lo, hi int) {
			pairs := make([]candDist, 0, n-1)
			for c := lo; c < hi; c++ {
				ci := int32(c)
				pairs = pairs[:0]
				for j := 0; j < n; j++ {
					if j != c {
						pairs = append(pairs, candDist{int32(j), dist(ci, int32(j))})
					}
				}
				sortCands(pairs)
				l.fill(ci, pairs[:k])
			}
		})
		l.mustValidate()
		return l
	}
	tree := geom.NewKDTree(in.Pts)
	// Fetch extra Euclidean neighbours, then re-sort by the instance metric:
	// rounding (EUC_2D/ATT/GEO) can permute near-ties.
	fetch := k + 4
	if fetch > n-1 {
		fetch = n - 1
	}
	par.For(n, func(lo, hi int) {
		pairs := make([]candDist, 0, fetch)
		for c := lo; c < hi; c++ {
			ci := int32(c)
			cand := tree.KNearest(in.Pts[c], fetch, c)
			pairs = pairs[:0]
			for _, o := range cand {
				pairs = append(pairs, candDist{o, dist(ci, o)})
			}
			sortCands(pairs)
			l.fill(ci, pairs[:k])
		}
	})
	l.mustValidate()
	return l
}

// BuildQuadrant constructs quadrant neighbour lists: for each city, up to
// perQuad nearest neighbours from each of the four coordinate quadrants
// around it, padded with globally nearest cities when quadrants are sparse.
// Quadrant lists avoid candidate starvation in strongly clustered instances.
func BuildQuadrant(in *tsp.Instance, perQuad int) *Lists {
	n := in.N()
	k := 4 * perQuad
	if k > n-1 {
		k = n - 1
	}
	if in.Explicit() {
		return Build(in, k)
	}
	l := newUniform(n, k)
	tree := geom.NewKDTree(in.Pts)
	dist := in.DistFunc()
	fetch := 4 * k
	if fetch > n-1 {
		fetch = n - 1
	}
	par.For(n, func(lo, hi int) {
		var quad [4][]int32
		pairs := make([]candDist, 0, k)
		seen := make(map[int32]bool, k)
		for c := lo; c < hi; c++ {
			ci := int32(c)
			cand := tree.KNearest(in.Pts[c], fetch, c)
			for q := range quad {
				quad[q] = quad[q][:0]
			}
			for o := range seen {
				delete(seen, o)
			}
			p := in.Pts[c]
			chosen := pairs[:0]
			for _, o := range cand {
				op := in.Pts[o]
				q := 0
				if op.X >= p.X {
					q |= 1
				}
				if op.Y >= p.Y {
					q |= 2
				}
				if len(quad[q]) < perQuad {
					quad[q] = append(quad[q], o)
					chosen = append(chosen, candDist{o, dist(ci, o)})
					seen[o] = true
				}
			}
			// Pad with nearest unused candidates.
			for _, o := range cand {
				if len(chosen) >= k {
					break
				}
				if !seen[o] {
					chosen = append(chosen, candDist{o, dist(ci, o)})
					seen[o] = true
				}
			}
			// If still short (tiny n), fill from brute force.
			for j := 0; j < n && len(chosen) < k; j++ {
				if int32(j) != ci && !seen[int32(j)] {
					chosen = append(chosen, candDist{int32(j), dist(ci, int32(j))})
					seen[int32(j)] = true
				}
			}
			sortCands(chosen)
			l.fill(ci, chosen[:k])
			pairs = chosen
		}
	})
	l.mustValidate()
	return l
}

// FromEdges builds candidate lists from an explicit edge set (e.g. the
// union graph in tour merging or alpha-nearness selections). adj maps each
// city to candidate endpoints; duplicates are deduplicated, then each list
// is sorted by instance distance so the dive() early-break assumption
// holds for edge-set candidate lists too. The CSR layout keeps the lists
// ragged — no padding entries are invented. A city with no usable
// candidates gets one arbitrary other city so random walks over the
// candidate graph never strand.
//
// Malformed input — a self-loop, an out-of-range vertex, or an adjacency
// slice whose length disagrees with the instance — returns a descriptive
// error rather than being silently skipped: every producer (union graphs,
// alpha selection, Delaunay adjacency) is supposed to emit clean edges, so
// a bad entry is a bug worth surfacing at the boundary.
func FromEdges(in *tsp.Instance, adj [][]int32) (*Lists, error) {
	n := in.N()
	if len(adj) != n {
		return nil, fmt.Errorf("neighbor: FromEdges: adjacency has %d cities, instance has %d", len(adj), n)
	}
	for c := range adj {
		ci := int32(c)
		for _, o := range adj[c] {
			if o < 0 || int(o) >= n {
				return nil, fmt.Errorf("neighbor: FromEdges: city %d lists out-of-range candidate %d (n=%d)", c, o, n)
			}
			if o == ci {
				return nil, fmt.Errorf("neighbor: FromEdges: city %d lists itself", c)
			}
		}
	}
	dist := in.DistFunc()
	perCity := make([][]candDist, n)
	par.For(n, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			ci := int32(c)
			s := make([]candDist, 0, len(adj[c])+1)
			for _, o := range adj[c] {
				s = append(s, candDist{o, dist(ci, o)})
			}
			sortCands(s)
			// Duplicates share (distance, id), so they are adjacent now.
			w := 0
			for i, p := range s {
				if i > 0 && p.c == s[w-1].c {
					continue
				}
				s[w] = p
				w++
			}
			s = s[:w]
			if len(s) == 0 && n > 1 {
				// Degenerate; point at an arbitrary different city.
				other := int32((c + 1) % n)
				s = append(s, candDist{other, dist(ci, other)})
			}
			perCity[c] = s
		}
	})
	l := &Lists{n: n, off: make([]int32, n+1)}
	total := 0
	for c, s := range perCity {
		l.off[c] = int32(total)
		total += len(s)
		if len(s) > l.k {
			l.k = len(s)
		}
	}
	l.off[n] = int32(total)
	l.flat, l.dist = make([]int32, total), make([]int64, total)
	for c, s := range perCity {
		l.fill(int32(c), s)
	}
	l.mustValidate()
	return l, nil
}
