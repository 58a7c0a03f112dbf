package construct

import (
	"math/rand"
	"sort"

	"distclk/internal/geom"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// Method selects a construction heuristic.
type Method int

const (
	// QuickBoruvka is the matching-pass constructor from Applegate et al.
	QuickBoruvka Method = iota
	// Greedy inserts candidate edges globally by increasing weight.
	Greedy
	// NearestNeighbor grows the tour by repeatedly visiting the nearest
	// unvisited city.
	NearestNeighbor
	// SpaceFilling orders cities along a Hilbert curve.
	SpaceFilling
)

// String names the method.
func (m Method) String() string {
	switch m {
	case QuickBoruvka:
		return "quick-boruvka"
	case Greedy:
		return "greedy"
	case NearestNeighbor:
		return "nearest-neighbor"
	case SpaceFilling:
		return "space-filling"
	}
	return "unknown"
}

// Build constructs a tour with the selected method. nbr supplies candidate
// edges for QuickBoruvka and Greedy (it may be nil, in which case lists with
// k=8 are built internally). rng picks nearest neighbour's start city.
func Build(m Method, in *tsp.Instance, nbr *neighbor.Lists, rng *rand.Rand) tsp.Tour {
	switch m {
	case QuickBoruvka:
		return quickBoruvka(in, need(in, nbr))
	case Greedy:
		return greedy(in, need(in, nbr))
	case NearestNeighbor:
		start := int32(0)
		if rng != nil {
			start = int32(rng.Intn(in.N()))
		}
		return nearestNeighbor(in, start)
	case SpaceFilling:
		return spaceFilling(in)
	}
	//lint:ignore nopanic Method is a closed enum; a value outside it is a programming error with no recovery, and Build's signature has no error path
	panic("construct: unknown method")
}

func need(in *tsp.Instance, nbr *neighbor.Lists) *neighbor.Lists {
	if nbr != nil {
		return nbr
	}
	return neighbor.Build(in, 8)
}

// fragmentSet tracks a partial 2-matching: per-city degree, the two tour
// neighbours chosen so far, and a union-find over path fragments.
type fragmentSet struct {
	deg    []uint8
	adj    [][2]int32
	parent []int32
}

func newFragmentSet(n int) *fragmentSet {
	f := &fragmentSet{
		deg:    make([]uint8, n),
		adj:    make([][2]int32, n),
		parent: make([]int32, n),
	}
	for i := range f.parent {
		f.parent[i] = int32(i)
		f.adj[i] = [2]int32{-1, -1}
	}
	return f
}

func (f *fragmentSet) find(x int32) int32 {
	for f.parent[x] != x {
		f.parent[x] = f.parent[f.parent[x]]
		x = f.parent[x]
	}
	return x
}

// canAdd reports whether edge (a,b) keeps the structure a set of paths.
func (f *fragmentSet) canAdd(a, b int32) bool {
	return a != b && f.deg[a] < 2 && f.deg[b] < 2 && f.find(a) != f.find(b)
}

func (f *fragmentSet) add(a, b int32) {
	f.adj[a][f.deg[a]] = b
	f.adj[b][f.deg[b]] = a
	f.deg[a]++
	f.deg[b]++
	f.parent[f.find(a)] = f.find(b)
}

// close stitches remaining path fragments (and isolated cities) into a
// single cycle, connecting nearest endpoints greedily, then emits the tour.
func (f *fragmentSet) close(in *tsp.Instance) tsp.Tour {
	n := len(f.deg)
	dist := in.DistFunc()
	// Endpoints are cities with degree < 2 (degree-0 cities count twice,
	// conceptually a path of one vertex).
	for {
		var ends []int32
		for c := int32(0); c < int32(n); c++ {
			if f.deg[c] < 2 {
				ends = append(ends, c)
			}
		}
		if len(ends) == 0 {
			break
		}
		if len(ends) == 2 && f.find(ends[0]) == f.find(ends[1]) {
			// Single open path: close the cycle.
			f.adj[ends[0]][f.deg[ends[0]]] = ends[1]
			f.adj[ends[1]][f.deg[ends[1]]] = ends[0]
			f.deg[ends[0]]++
			f.deg[ends[1]]++
			break
		}
		// Connect the first endpoint to the nearest endpoint of a
		// different fragment.
		a := ends[0]
		var best int32 = -1
		var bestD int64
		for _, b := range ends[1:] {
			if !f.canAdd(a, b) {
				continue
			}
			d := dist(a, b)
			if best < 0 || d < bestD {
				best, bestD = b, d
			}
		}
		if best < 0 {
			// a's fragment is the only one left but has >2 endpoints —
			// impossible for paths; guard anyway.
			break
		}
		f.add(a, best)
	}
	// Walk the adjacency into a tour.
	tour := make(tsp.Tour, 0, n)
	visited := make([]bool, n)
	cur, prev := int32(0), int32(-1)
	for len(tour) < n {
		tour = append(tour, cur)
		visited[cur] = true
		next := f.adj[cur][0]
		if next == prev || next < 0 || visited[next] {
			next = f.adj[cur][1]
		}
		if next < 0 || visited[next] {
			// Disconnected guard: jump to any unvisited city.
			next = -1
			for c := int32(0); c < int32(n); c++ {
				if !visited[c] {
					next = c
					break
				}
			}
			if next < 0 {
				break
			}
		}
		prev, cur = cur, next
	}
	return tour
}

// quickBoruvka implements the constructor from Applegate, Cook & Rohe:
// process cities in coordinate-sorted order; for each city with fewer than
// two incident tour edges, add its cheapest valid candidate edge. At most
// two passes are needed; leftovers are stitched.
func quickBoruvka(in *tsp.Instance, nbr *neighbor.Lists) tsp.Tour {
	n := in.N()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if !in.Explicit() {
		pts := in.Pts
		sort.Slice(order, func(i, j int) bool {
			a, b := pts[order[i]], pts[order[j]]
			if a.X != b.X {
				return a.X < b.X
			}
			if a.Y != b.Y {
				return a.Y < b.Y
			}
			return order[i] < order[j]
		})
	}
	f := newFragmentSet(n)
	for pass := 0; pass < 2; pass++ {
		for _, c := range order {
			for f.deg[c] < 2 {
				// Candidates are pre-sorted by distance, so the first
				// addable one is the cheapest — no metric calls needed.
				var best int32 = -1
				for _, o := range nbr.Of(c) {
					if f.canAdd(c, o) {
						best = o
						break
					}
				}
				if best < 0 {
					break
				}
				f.add(c, best)
			}
		}
	}
	return f.close(in)
}

// greedy sorts all candidate edges by weight and adds each edge that keeps
// the structure a set of paths.
func greedy(in *tsp.Instance, nbr *neighbor.Lists) tsp.Tour {
	n := in.N()
	type edge struct {
		d    int64
		a, b int32
	}
	edges := make([]edge, 0, n*nbr.K()/2)
	for c := int32(0); c < int32(n); c++ {
		cand, cd := nbr.Cand(c)
		for i, o := range cand {
			if c < o {
				edges = append(edges, edge{cd[i], c, o})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].d != edges[j].d {
			return edges[i].d < edges[j].d
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	f := newFragmentSet(n)
	for _, e := range edges {
		if f.canAdd(e.a, e.b) {
			f.add(e.a, e.b)
		}
	}
	return f.close(in)
}

// nearestNeighbor walks the instance's shared k-d tree through a LiveSet,
// taking the nearest unvisited city at every step. A step whose nearest
// city is unique takes it, typically in O(log n); KNearest's order would
// reach that city first among the unvisited ones too. A step with a tie
// (another unvisited city at exactly the same squared distance) goes
// through nearestByKNearest instead, for that step only: the tours this
// constructor has always produced resolve ties by KNearest's heap order,
// and every seeded run, restart and pinned digest replays those tours.
// Ties are rare: 45 of 19,990 steps over ten starts on a 2000-city
// drilling board, and none on uniform, grid or clustered ones of that
// size, so the slow path costs little.
func nearestNeighbor(in *tsp.Instance, start int32) tsp.Tour {
	n := in.N()
	if in.Explicit() {
		return nearestNeighborBrute(in, start)
	}
	tree := in.KDTree()
	live := tree.NewLiveSet()
	visited := make([]bool, n)
	tour := make(tsp.Tour, 0, n)
	for cur := start; ; {
		visited[cur] = true
		live.Remove(cur)
		tour = append(tour, cur)
		if len(tour) == n {
			return tour
		}
		next, tied := live.Nearest(in.Pts[cur])
		if tied || next < 0 {
			next = nearestByKNearest(tree, in.Pts[cur], cur, visited)
		}
		if next < 0 {
			return tour
		}
		cur = next
	}
}

// nearestByKNearest returns the first unvisited city in KNearest's order
// around cur, doubling k from 8 until one appears, or -1 when none does.
// Among cities at equal distance, KNearest's heap order decides which
// comes first.
func nearestByKNearest(tree *geom.KDTree, q geom.Point, cur int32, visited []bool) int32 {
	last := tree.Len() - 1
	for k := 8; ; k *= 2 {
		if k > last {
			k = last
		}
		for _, c := range tree.KNearest(q, k, int(cur)) {
			if !visited[c] {
				return c
			}
		}
		if k == last {
			return -1
		}
	}
}

func nearestNeighborBrute(in *tsp.Instance, start int32) tsp.Tour {
	n := in.N()
	dist := in.DistFunc()
	visited := make([]bool, n)
	tour := make(tsp.Tour, 0, n)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	for len(tour) < n {
		next, bestD := int32(-1), int64(0)
		for c := int32(0); c < int32(n); c++ {
			if visited[c] {
				continue
			}
			d := dist(cur, c)
			if next < 0 || d < bestD {
				next, bestD = c, d
			}
		}
		if next < 0 {
			break
		}
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	return tour
}

func spaceFilling(in *tsp.Instance) tsp.Tour {
	n := in.N()
	tour := tsp.IdentityTour(n)
	if in.Explicit() {
		return tour
	}
	keys := geom.HilbertKeys(in.Pts)
	sort.Slice(tour, func(i, j int) bool {
		if keys[tour[i]] != keys[tour[j]] {
			return keys[tour[i]] < keys[tour[j]]
		}
		return tour[i] < tour[j]
	})
	return tour
}
