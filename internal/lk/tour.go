package lk

import "distclk/internal/tsp"

// ArrayTour is a tour stored as a permutation plus its inverse: order[i] is
// the city at position i and pos[c] is city c's position. Next/Prev are O(1)
// and Flip reverses a segment, always walking the shorter side, so a flip
// costs O(min(len, n-len)). The cycle it represents is orientation-free:
// flips may invert the stored direction of parts of the tour, and callers
// must re-derive directions from Next/Prev rather than caching them.
type ArrayTour struct {
	order []int32
	pos   []int32
	n     int32
}

// NewArrayTour builds the structure from a tour permutation (copied).
func NewArrayTour(t tsp.Tour) *ArrayTour {
	n := int32(len(t))
	at := &ArrayTour{
		order: make([]int32, n),
		pos:   make([]int32, n),
		n:     n,
	}
	copy(at.order, t)
	for i, c := range at.order {
		at.pos[c] = int32(i)
	}
	return at
}

// N reports the number of cities.
func (t *ArrayTour) N() int { return int(t.n) }

// Next returns the city after c in the stored orientation.
func (t *ArrayTour) Next(c int32) int32 {
	i := t.pos[c] + 1
	if i == t.n {
		i = 0
	}
	return t.order[i]
}

// Prev returns the city before c in the stored orientation.
func (t *ArrayTour) Prev(c int32) int32 {
	i := t.pos[c] - 1
	if i < 0 {
		i = t.n - 1
	}
	return t.order[i]
}

// Pos returns city c's current position.
func (t *ArrayTour) Pos(c int32) int32 { return t.pos[c] }

// At returns the city at position i.
func (t *ArrayTour) At(i int32) int32 { return t.order[i] }

// Flip reverses the forward segment from a to b (inclusive). When the
// complement is shorter it reverses that instead, which yields the same
// Hamiltonian cycle but may invert the stored orientation. Because of
// that, undoing a flip requires re-deriving the direction from a fixed
// reference edge (see Optimizer.undoStep); Flip(b, a) alone is not a
// reliable inverse.
//
//distlint:hotpath
func (t *ArrayTour) Flip(a, b int32) {
	if a == b {
		return
	}
	pa, pb := t.pos[a], t.pos[b]
	inLen := pb - pa
	if inLen < 0 {
		inLen += t.n
	}
	inLen++
	if inLen*2 > t.n {
		// Reverse the complement [next(b) .. prev(a)] instead.
		pa = pb + 1
		if pa == t.n {
			pa = 0
		}
		pb = t.pos[a] - 1
		if pb < 0 {
			pb = t.n - 1
		}
		inLen = t.n - inLen
		if inLen == 0 {
			return
		}
	}
	if pa <= pb {
		// Common case: the reversed range is contiguous in the array, so
		// the two cursors never wrap — a tight loop with no modular
		// arithmetic.
		order, pos := t.order, t.pos
		for i, j := pa, pb; i < j; i, j = i+1, j-1 {
			ci, cj := order[i], order[j]
			order[i], order[j] = cj, ci
			pos[ci], pos[cj] = j, i
		}
		return
	}
	i, j := pa, pb
	for k := inLen / 2; k > 0; k-- {
		ci, cj := t.order[i], t.order[j]
		t.order[i], t.order[j] = cj, ci
		t.pos[ci], t.pos[cj] = j, i
		i++
		if i == t.n {
			i = 0
		}
		j--
		if j < 0 {
			j = t.n - 1
		}
	}
}

// SetSeg overwrites the cities at consecutive positions start, start+1, …
// (no wrap-around; start+len(cities) must be ≤ n) and refreshes the inverse
// index for the rewritten range. The caller is responsible for the result
// remaining a permutation — it is the allocation-free primitive behind the
// double-bridge kick, which rewrites only the affected position range
// instead of rebuilding the whole order array.
//
//distlint:hotpath
func (t *ArrayTour) SetSeg(start int32, cities []int32) {
	copy(t.order[start:], cities)
	for i, c := range cities {
		t.pos[c] = start + int32(i)
	}
}

// Tour copies the current cycle out as a permutation.
func (t *ArrayTour) Tour() tsp.Tour {
	out := make(tsp.Tour, t.n)
	copy(out, t.order)
	return out
}

// CopyFrom overwrites this tour's state with src's. Both must have equal n.
//
//distlint:hotpath
func (t *ArrayTour) CopyFrom(src *ArrayTour) {
	copy(t.order, src.order)
	copy(t.pos, src.pos)
}

// SetTour overwrites the state with the given permutation.
func (t *ArrayTour) SetTour(tour tsp.Tour) {
	copy(t.order, tour)
	for i, c := range t.order {
		t.pos[c] = int32(i)
	}
}
