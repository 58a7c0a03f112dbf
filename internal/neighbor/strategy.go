package neighbor

import (
	"fmt"
	"strings"

	"distclk/internal/geom"
	"distclk/internal/tsp"
)

// Strategy describes one candidate-set construction algorithm. Every
// strategy produces the same CSR Lists contract (per-city ascending
// instance distance, no self-edges, no duplicates), so the LK hot path is
// oblivious to which one built its lists.
type Strategy struct {
	// Name is the stable identifier used by flags and facade options.
	Name string
	// Build constructs the lists. k is the per-city candidate budget;
	// strategies with a natural degree (delaunay) may ignore it.
	Build func(in *tsp.Instance, k int) (*Lists, error)
}

// strategies is the fixed registry, in documentation order. A slice, not a
// map: iteration order is part of the CLI/docs contract.
var strategies = []Strategy{
	{
		// k nearest neighbours per city (k-d tree), O(n log n); the
		// historical default.
		Name: "knn",
		Build: func(in *tsp.Instance, k int) (*Lists, error) {
			return Build(in, k), nil
		},
	},
	{
		// ceil(k/4) nearest per coordinate quadrant, O(n log n); resists
		// candidate starvation on clustered instances and falls back to
		// knn on explicit ones.
		Name: "quadrant",
		Build: func(in *tsp.Instance, k int) (*Lists, error) {
			return BuildQuadrant(in, (k+3)/4), nil
		},
	},
	{
		// LKH alpha-nearness ranking from a Held-Karp 1-tree: the strongest
		// lists, with an O(n^2) build.
		Name: "alpha",
		Build: func(in *tsp.Instance, k int) (*Lists, error) {
			return BuildAlpha(in, k, DefaultAscentIterations)
		},
	},
	{
		// Delaunay triangulation edges (natural degree ~6, ignores k),
		// O(n log n); needs coordinates.
		Name:  "delaunay",
		Build: BuildDelaunay,
	},
}

// StrategyNames returns the registered names plus "auto", for flag help.
func StrategyNames() []string {
	names := make([]string, 0, len(strategies)+1)
	names = append(names, "auto")
	for _, s := range strategies {
		names = append(names, s.Name)
	}
	return names
}

// ByName looks up a registered strategy.
func ByName(name string) (Strategy, error) {
	for _, s := range strategies {
		if s.Name == name {
			return s, nil
		}
	}
	return Strategy{}, fmt.Errorf("neighbor: unknown candidate strategy %q (have %s)", name, strings.Join(StrategyNames(), ", "))
}

// BuildDelaunay builds candidate lists from the Delaunay triangulation of
// the instance's coordinates. Each city's candidates are its triangulation
// neighbours (average degree ~6 by Euler's formula), re-sorted by the
// instance metric so the CSR ascending contract holds for every TSPLIB
// metric, not just EUC_2D. The k budget is ignored — the triangulation
// determines its own degree. Co-located cities (clamped generator output,
// repeated TSPLIB rows) would abort the triangulation, so only unique
// coordinates are triangulated and each duplicate city is grafted onto its
// representative's neighbourhood (plus a zero-length edge to the
// representative itself). Errors on explicit instances and on all-collinear
// geometry.
func BuildDelaunay(in *tsp.Instance, k int) (*Lists, error) {
	_ = k
	if in.Explicit() {
		return nil, fmt.Errorf("neighbor: delaunay strategy needs coordinates; instance %q is matrix-only", in.Name)
	}
	n := in.N()
	rep := make([]int32, n) // city -> first city with identical coordinates
	var uniqPts []geom.Point
	var uniqCity []int32 // triangulation index -> city id
	seen := make(map[geom.Point]int32, n)
	dups := 0
	for i := int32(0); i < int32(n); i++ {
		p := in.Pts[i]
		if r, ok := seen[p]; ok {
			rep[i] = r
			dups++
			continue
		}
		seen[p] = i
		rep[i] = i
		uniqPts = append(uniqPts, p)
		uniqCity = append(uniqCity, i)
	}
	tri, err := geom.Delaunay(uniqPts)
	if err != nil {
		return nil, fmt.Errorf("neighbor: delaunay strategy: %w", err)
	}
	uadj := tri.Adjacency(len(uniqPts))
	adj := make([][]int32, n)
	for u, nbrs := range uadj {
		mapped := make([]int32, len(nbrs))
		for j, v := range nbrs {
			mapped[j] = uniqCity[v]
		}
		adj[uniqCity[u]] = mapped
	}
	if dups > 0 {
		for i := int32(0); i < int32(n); i++ {
			if r := rep[i]; r != i {
				adj[i] = append([]int32{r}, adj[r]...)
				adj[r] = append(adj[r], i)
			}
		}
	}
	return FromEdges(in, adj)
}

// Choice is the auto-selector's decision: which strategy to build and
// whether to enable the relaxed LK gain rule (depth 0 = classic strict
// positive-gain).
type Choice struct {
	// Strategy is a registered strategy name.
	Strategy string
	// RelaxDepth is the recommended lk.Params.RelaxDepth: chain depths
	// below it may carry a bounded non-positive partial gain.
	RelaxDepth int
	// Reason is a one-line human-readable justification, printed by
	// cmd/tspstat so users can predict and audit the selection.
	Reason string
}

// Auto maps instance statistics to a strategy and gain rule. The policy is
// deliberately simple and inspectable — cmd/tspstat prints the same Stats
// and this function's verdict:
//
//   - explicit or tiny instances: knn (geometry unavailable or irrelevant);
//   - strongly clustered (ClusterCV >= 3): quadrant, which guarantees
//     candidates in all four directions and so keeps inter-cluster edges
//     that pure kNN starves out;
//   - lattice-like coordinate sharing (AxisDegeneracy >= 0.5): delaunay
//     plus a relaxed gain rule — drilling-pattern plateaus of equal-length
//     moves need sideways steps the strict rule rejects;
//   - otherwise: delaunay, whose natural ~6 degree gives knn-quality tours
//     with smaller lists and no k to tune.
//
// alpha is never auto-selected: its O(n^2) build only pays off on hard
// instances where the user opts in explicitly.
func Auto(st tsp.Stats) Choice {
	switch {
	case st.Explicit:
		return Choice{Strategy: "knn", Reason: "matrix-only instance: geometric builders do not apply"}
	case st.N < 64:
		return Choice{Strategy: "knn", Reason: "tiny instance: brute-force knn is exact and cheapest"}
	case st.ClusterCV >= 3.0:
		return Choice{Strategy: "quadrant", Reason: fmt.Sprintf("strongly clustered (occupancy CV %.1f >= 3.0): quadrant lists keep inter-cluster edges", st.ClusterCV)}
	case st.AxisDegeneracy >= 0.5:
		return Choice{Strategy: "delaunay", RelaxDepth: 3, Reason: fmt.Sprintf("lattice-like coordinates (axis degeneracy %.2f >= 0.5): delaunay + relaxed gain escapes equal-length plateaus", st.AxisDegeneracy)}
	default:
		return Choice{Strategy: "delaunay", Reason: "continuous geometry: delaunay's natural degree needs no k tuning"}
	}
}

// Select resolves a strategy name ("auto" or a registered name) and builds
// the lists. For "auto" it probes the instance with tsp.Describe, applies
// Auto, and falls back to knn if the chosen geometric builder fails on
// degenerate geometry (e.g. all-collinear points break delaunay) — auto
// must always produce usable lists. An explicitly named strategy that fails
// returns its error instead: the caller asked for exactly that builder.
func Select(in *tsp.Instance, name string, k int) (*Lists, Choice, error) {
	if name == "" || name == "auto" {
		ch := Auto(tsp.Describe(in))
		st, err := ByName(ch.Strategy)
		if err != nil {
			return nil, Choice{}, err
		}
		l, err := st.Build(in, k)
		if err != nil {
			ch = Choice{Strategy: "knn", Reason: fmt.Sprintf("fallback: %s failed (%v)", st.Name, err)}
			l = Build(in, k)
		}
		return l, ch, nil
	}
	st, err := ByName(name)
	if err != nil {
		return nil, Choice{}, err
	}
	l, err := st.Build(in, k)
	if err != nil {
		return nil, Choice{}, err
	}
	return l, Choice{Strategy: st.Name, Reason: "explicitly requested"}, nil
}
