package geom

import (
	"math"
	"sort"
)

// KDTree is a static 2-d tree over a point set, built once and queried for
// k-nearest-neighbour searches, directly or through a LiveSet. Points are
// referenced by their index in the slice passed to NewKDTree, so callers
// can map results back to city identifiers. Queries never write the tree,
// so one tree serves any number of concurrent readers.
type KDTree struct {
	pts []Point
	// nodes is in pre-order: node 0 is the root, and each subtree occupies
	// a contiguous range starting at its root.
	nodes []kdNode
	at    []int32 // at[i] is the node holding point i
	root  int32
}

type kdNode struct {
	idx         int32 // index into pts
	left, right int32 // node indices, -1 if absent
	axis        uint8 // 0 = split on X, 1 = split on Y
}

// NewKDTree builds a balanced k-d tree over pts. The slice is retained (not
// copied); callers must not mutate it while the tree is in use.
func NewKDTree(pts []Point) *KDTree {
	t := &KDTree{
		pts:   pts,
		nodes: make([]kdNode, 0, len(pts)),
		at:    make([]int32, len(pts)),
	}
	order := make([]int32, len(pts))
	for i := range order {
		order[i] = int32(i)
	}
	t.root = t.build(order, 0)
	return t
}

func (t *KDTree) build(order []int32, depth int) int32 {
	if len(order) == 0 {
		return -1
	}
	axis := uint8(depth & 1)
	sort.Slice(order, func(i, j int) bool {
		a, b := t.pts[order[i]], t.pts[order[j]]
		if axis == 0 {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	mid := len(order) / 2
	node := kdNode{idx: order[mid], axis: axis}
	pos := int32(len(t.nodes))
	t.nodes = append(t.nodes, node)
	t.at[node.idx] = pos
	left := t.build(order[:mid], depth+1)
	right := t.build(order[mid+1:], depth+1)
	t.nodes[pos].left = left
	t.nodes[pos].right = right
	return pos
}

// Len reports the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// knnHeap is a bounded max-heap of (squared distance, index) pairs keeping
// the k closest candidates seen so far.
type knnHeap struct {
	d   []float64
	idx []int32
	k   int
}

func (h *knnHeap) worst() float64 { return h.d[0] }

func (h *knnHeap) push(dist float64, idx int32) {
	if len(h.d) < h.k {
		h.d = append(h.d, dist)
		h.idx = append(h.idx, idx)
		h.up(len(h.d) - 1)
		return
	}
	if dist >= h.d[0] {
		return
	}
	h.d[0], h.idx[0] = dist, idx
	h.down(0)
}

func (h *knnHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.d[p] >= h.d[i] {
			break
		}
		h.d[p], h.d[i] = h.d[i], h.d[p]
		h.idx[p], h.idx[i] = h.idx[i], h.idx[p]
		i = p
	}
}

func (h *knnHeap) down(i int) {
	n := len(h.d)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.d[l] > h.d[big] {
			big = l
		}
		if r < n && h.d[r] > h.d[big] {
			big = r
		}
		if big == i {
			return
		}
		h.d[big], h.d[i] = h.d[i], h.d[big]
		h.idx[big], h.idx[i] = h.idx[i], h.idx[big]
		i = big
	}
}

// KNearest returns the indices of the k points nearest to query, excluding
// the point with index exclude (pass -1 to exclude nothing), ordered by
// increasing Euclidean distance. Fewer than k indices are returned when the
// tree holds fewer eligible points.
func (t *KDTree) KNearest(query Point, k int, exclude int) []int32 {
	if k <= 0 || len(t.pts) == 0 {
		return nil
	}
	h := knnHeap{
		d:   make([]float64, 0, k),
		idx: make([]int32, 0, k),
		k:   k,
	}
	t.search(t.root, query, int32(exclude), &h)
	// Heap-sort ascending: repeatedly pop the max to the back.
	out := make([]int32, len(h.idx))
	for n := len(h.d); n > 0; n-- {
		out[n-1] = h.idx[0]
		h.d[0], h.idx[0] = h.d[n-1], h.idx[n-1]
		h.d = h.d[:n-1]
		h.idx = h.idx[:n-1]
		h.down(0)
	}
	return out
}

func (t *KDTree) search(ni int32, q Point, exclude int32, h *knnHeap) {
	if ni < 0 {
		return
	}
	node := &t.nodes[ni]
	p := t.pts[node.idx]
	if node.idx != exclude {
		h.push(SqDist(p, q), node.idx)
	}
	var delta float64
	if node.axis == 0 {
		delta = q.X - p.X
	} else {
		delta = q.Y - p.Y
	}
	near, far := node.left, node.right
	if delta > 0 {
		near, far = far, near
	}
	t.search(near, q, exclude, h)
	if len(h.d) < h.k || delta*delta < h.worst() {
		t.search(far, q, exclude, h)
	}
}

// LiveSet is a deletable view of a KDTree: every point starts live, Remove
// takes one out, and Nearest finds the closest point still live. It keeps
// one live-point count per tree node and never writes the tree, so many
// LiveSets can walk one shared tree at once. Subtrees whose count reaches
// zero are skipped, so a walk that removes points as it goes (a
// nearest-neighbour tour) does not slow down as the tree empties.
type LiveSet struct {
	t    *KDTree
	live []int32 // live points in each node's subtree
}

// NewLiveSet returns a view of t with every point live.
func (t *KDTree) NewLiveSet() *LiveSet {
	live := make([]int32, len(t.nodes))
	// Pre-order puts children after their parent, so a reverse pass sees
	// both children's sizes before the parent's.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		nd := &t.nodes[i]
		live[i] = 1
		if nd.left >= 0 {
			live[i] += live[nd.left]
		}
		if nd.right >= 0 {
			live[i] += live[nd.right]
		}
	}
	return &LiveSet{t: t, live: live}
}

// Remove takes point i out of the set. Removing a point twice corrupts the
// counts; callers track membership themselves.
func (s *LiveSet) Remove(i int32) {
	q := s.t.at[i]
	for ni := s.t.root; ; {
		s.live[ni]--
		if ni == q {
			return
		}
		// q lies in the right subtree iff its pre-order index reaches the
		// right child's.
		if r := s.t.nodes[ni].right; r >= 0 && q >= r {
			ni = r
		} else {
			ni = s.t.nodes[ni].left
		}
	}
}

// Nearest returns the live point nearest to query by SqDist, or -1 when
// none is live (or no distance compares, as with NaN coordinates). tied
// reports that another live point lies at exactly the same squared
// distance; which of the tied points is returned is then unspecified.
func (s *LiveSet) Nearest(query Point) (best int32, tied bool) {
	w := liveWalk{best: -1, d: math.Inf(1)}
	s.nearest(s.t.root, query, &w)
	return w.best, w.tied
}

type liveWalk struct {
	best int32
	d    float64
	tied bool
}

func (s *LiveSet) nearest(ni int32, q Point, w *liveWalk) {
	if ni < 0 || s.live[ni] == 0 {
		return
	}
	node := &s.t.nodes[ni]
	own := s.live[ni]
	if node.left >= 0 {
		own -= s.live[node.left]
	}
	if node.right >= 0 {
		own -= s.live[node.right]
	}
	p := s.t.pts[node.idx]
	if own > 0 {
		switch d := SqDist(p, q); {
		case d < w.d:
			w.best, w.d, w.tied = node.idx, d, false
		case d == w.d:
			w.tied = true
		}
	}
	var delta float64
	if node.axis == 0 {
		delta = q.X - p.X
	} else {
		delta = q.Y - p.Y
	}
	near, far := node.left, node.right
	if delta > 0 {
		near, far = far, near
	}
	s.nearest(near, q, w)
	// <=, not <: a far-side point at exactly the best distance is a tie
	// the caller must hear about.
	if delta*delta <= w.d {
		s.nearest(far, q, w)
	}
}
