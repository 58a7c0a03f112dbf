package neighbor

import (
	"math"

	"distclk/internal/heldkarp"
	"distclk/internal/par"
	"distclk/internal/tsp"
)

// DefaultAscentIterations is the Held-Karp subgradient budget BuildAlpha
// uses when callers pass ascentIters <= 0. Matches the lkh engine default.
const DefaultAscentIterations = 60

// alphaScored pairs a candidate with its alpha value for ranking.
type alphaScored struct {
	j int32
	a float64
}

// sortByAlpha orders by (alpha, id) — insertion sort, the lists are short.
func sortByAlpha(s []alphaScored) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j-1].a > s[j].a || (s[j-1].a == s[j].a && s[j-1].j > s[j].j)); j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// BuildAlpha builds alpha-nearness candidate lists: alpha(i,j) is the
// increase of the minimum 1-tree cost when edge (i,j) is forced into it,
// computed as w(i,j) - beta(i,j), where w is the pi-modified weight and
// beta(i,j) is the maximum edge weight on the 1-tree path between i and j.
// The k candidates with smallest alpha are kept per city (symmetrized).
// Runs the Held-Karp ascent first to obtain good potentials, then ranks a
// cheap 3k+8 nearest-neighbour pre-selection per city. The per-city beta
// DFS is parallel across par.For chunks with chunk-local scratch; the
// result is deterministic regardless of chunk boundaries. O(n^2) time
// overall (dominated by the ascent's Prim runs), so the auto-selector
// never picks it — it is an explicit opt-in for hard instances.
func BuildAlpha(in *tsp.Instance, k, ascentIters int) (*Lists, error) {
	n := in.N()
	if k > n-1 {
		k = n - 1
	}
	if ascentIters <= 0 {
		ascentIters = DefaultAscentIterations
	}
	res := heldkarp.LowerBound(in, heldkarp.Options{Iterations: ascentIters})
	tree, pi := res.Tree, res.Pi
	dist := in.DistFunc()
	w := func(i, j int32) float64 { return float64(dist(i, j)) + pi[i] + pi[j] }

	// MST adjacency (cities 1..n-1) with edge weights.
	treeAdj := make([][]int32, n)
	treeWt := make([][]float64, n)
	for i := int32(1); i < int32(n); i++ {
		if p := tree.Parent[i]; p > 0 {
			treeAdj[i] = append(treeAdj[i], p)
			treeWt[i] = append(treeWt[i], tree.ParentW[i])
			treeAdj[p] = append(treeAdj[p], i)
			treeWt[p] = append(treeWt[p], tree.ParentW[i])
		}
	}

	// City 0's forced edge replaces its larger special edge.
	maxOn0 := math.Max(w(0, tree.Special0[0]), w(0, tree.Special0[1]))

	// Pre-select near neighbours cheaply, then alpha-rank them.
	pre := Build(in, min(3*k+8, n-1))

	adj := make([][]int32, n)
	type frame struct {
		node int32
		b    float64
	}
	par.For(n, func(lo, hi int) {
		beta := make([]float64, n)
		visited := make([]bool, n)
		stack := make([]frame, 0, n)
		var scored []alphaScored
		for c := lo; c < hi; c++ {
			i := int32(c)
			cand := pre.Of(i)
			scored = scored[:0]
			if i == 0 {
				for _, j := range cand {
					a := w(0, j) - maxOn0
					if j == tree.Special0[0] || j == tree.Special0[1] || a < 0 {
						a = 0
					}
					scored = append(scored, alphaScored{j, a})
				}
			} else {
				// DFS from i over the MST: beta(i, x) = max edge on the path.
				for x := range visited {
					visited[x] = false
				}
				visited[i] = true
				stack = append(stack[:0], frame{i, math.Inf(-1)})
				for len(stack) > 0 {
					f := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for e, nb := range treeAdj[f.node] {
						if visited[nb] {
							continue
						}
						visited[nb] = true
						b := math.Max(f.b, treeWt[f.node][e])
						beta[nb] = b
						stack = append(stack, frame{nb, b})
					}
				}
				for _, j := range cand {
					var a float64
					if j == 0 {
						a = w(i, 0) - maxOn0
						if i == tree.Special0[0] || i == tree.Special0[1] {
							a = 0
						}
					} else {
						a = w(i, j) - beta[j]
					}
					if a < 0 {
						a = 0
					}
					scored = append(scored, alphaScored{j, a})
				}
			}
			sortByAlpha(scored)
			lim := min(k, len(scored))
			sel := make([]int32, 0, lim)
			for _, s := range scored[:lim] {
				sel = append(sel, s.j)
			}
			adj[c] = sel
		}
	})

	// Symmetrize: LK traverses candidate edges from both endpoints.
	// FromEdges re-sorts by (distance, id) and dedupes, so the map
	// iteration order here does not affect the final Lists.
	seen := make([]map[int32]bool, n)
	for i := range seen {
		seen[i] = map[int32]bool{}
	}
	for i := int32(0); i < int32(n); i++ {
		for _, j := range adj[i] {
			seen[i][j] = true
			seen[j][i] = true
		}
	}
	out := make([][]int32, n)
	for i := range out {
		for j := range seen[i] {
			out[i] = append(out[i], j)
		}
	}
	return FromEdges(in, out)
}
