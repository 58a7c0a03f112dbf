package lk

import (
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// Params tunes the Lin-Kernighan search.
type Params struct {
	// MaxDepth bounds the length of one sequential exchange chain.
	MaxDepth int
	// Breadth[i] is the number of candidate extensions explored at chain
	// depth i; depths beyond the slice use breadth 1 (greedy dive).
	Breadth []int
	// RelaxDepth enables the relaxed gain rule: at chain depths below it,
	// the cumulative partial gain may dip as low as -slack instead of
	// having to stay strictly positive, letting chains cross equal-length
	// plateaus (lattice instances) the classic rule cannot. 0 (or
	// negative) keeps the classic strictly-positive criterion everywhere.
	// Accepted moves still strictly improve the tour: only the closing
	// test decides acceptance, and it is unchanged.
	RelaxDepth int
}

// relaxSlackPerMille bounds the relaxed rule's dip as thousandths of the
// chain's first removed edge g0: slack = g0/10.
const relaxSlackPerMille = 100

// DefaultParams matches the breadth schedule used in practice by
// Concorde-style implementations: wide at the first levels, then a greedy
// deep dive.
func DefaultParams() Params {
	return Params{
		MaxDepth: 30,
		Breadth:  []int{5, 3, 2},
	}
}

func (p Params) breadth(depth int) int {
	if depth < len(p.Breadth) {
		return p.Breadth[depth]
	}
	return 1
}

// step is one link of an exchange chain: with anchor t1 and current loose
// end `loose`, the move removes edges (t1,loose) and (v,y), and adds
// (loose,y) and (v,t1), making v the new loose end. Steps are recorded
// orientation-free: apply/undo re-derive the array direction from Next(t1),
// because shorter-side flips may mirror the stored orientation. y is not
// needed to flip; it is kept so an accepted chain can re-queue every
// endpoint of the edges it changed.
type step struct {
	loose, v, y int32
}

// Optimizer runs Lin-Kernighan over an ArrayTour. It maintains don't-look
// bits and an active-city queue so that repeated optimization after a kick
// only examines the perturbed region. All scratch state is pre-sized at
// NewOptimizer time; the steady-state kick→optimize loop allocates nothing
// and reads candidate-edge distances from the neighbor.Lists table instead
// of evaluating the instance metric.
type Optimizer struct {
	inst   *tsp.Instance
	nbr    *neighbor.Lists
	params Params

	Tour   *ArrayTour
	length int64

	dist    func(i, j int32) int64
	queue   []int32 // FIFO backing array; live entries are queue[qhead:]
	qhead   int
	inQueue []bool

	// chain state
	t1       int32
	bestGain int64
	bestLen  int
	path     []step
	bestPath []step
	touched  []int32

	// relaxed-gain state: relaxDepth is fixed at construction; relaxLimit
	// is recomputed once per chain from g0 and read (not recomputed) on
	// every dive level.
	relaxDepth int
	relaxLimit int64

	// Moves counts accepted improving exchanges (for instrumentation).
	Moves int64
}

// NewOptimizer prepares an optimizer over the given tour. The tour is
// adopted (copied into the internal array form); Optimize mutates it.
// Every scratch buffer the search can need is allocated here, pre-sized
// from the instance and MaxDepth, so Optimize never grows a slice.
func NewOptimizer(inst *tsp.Instance, nbr *neighbor.Lists, tour tsp.Tour, params Params) *Optimizer {
	n := inst.N()
	return &Optimizer{
		inst:       inst,
		nbr:        nbr,
		params:     params,
		Tour:       NewArrayTour(tour),
		length:     tour.Length(inst),
		dist:       inst.DistFunc(),
		queue:      make([]int32, 0, n),
		inQueue:    make([]bool, n),
		path:       make([]step, 0, params.MaxDepth),
		bestPath:   make([]step, 0, params.MaxDepth),
		touched:    make([]int32, 0, 3*params.MaxDepth+2),
		relaxDepth: params.RelaxDepth,
	}
}

// Length returns the current tour length (maintained incrementally).
func (o *Optimizer) Length() int64 { return o.length }

// SetTour replaces the working tour, resetting queue state.
func (o *Optimizer) SetTour(t tsp.Tour) {
	o.Tour.SetTour(t)
	o.length = t.Length(o.inst)
	for i := range o.inQueue {
		o.inQueue[i] = false
	}
	o.queue = o.queue[:0]
	o.qhead = 0
}

// SetLength overrides the cached length after the caller mutated the tour
// externally with a known delta (used by kick moves).
func (o *Optimizer) SetLength(l int64) { o.length = l }

// push enqueues c unless already queued. The backing array never grows
// past its initial capacity n: at most n-1 other cities can be live when a
// new one arrives, so compacting the consumed prefix always makes room.
//
//distlint:hotpath
func (o *Optimizer) push(c int32) {
	if o.inQueue[c] {
		return
	}
	o.inQueue[c] = true
	if len(o.queue) == cap(o.queue) && o.qhead > 0 {
		live := copy(o.queue, o.queue[o.qhead:])
		o.queue = o.queue[:live]
		o.qhead = 0
	}
	o.queue = append(o.queue, c)
}

// QueueAll enqueues every city for examination.
func (o *Optimizer) QueueAll() {
	for c := int32(0); c < int32(o.inst.N()); c++ {
		o.push(c)
	}
}

// QueueCities enqueues specific cities (e.g. kick endpoints).
func (o *Optimizer) QueueCities(cities []int32) {
	for _, c := range cities {
		o.push(c)
	}
}

// Optimize processes the active queue to exhaustion, applying improving
// variable-depth exchanges until no queued city yields one. It returns the
// total gain (length decrease). stop, when non-nil, is polled between
// cities; a true return aborts early (used for wall-clock budgets).
//
//distlint:hotpath
func (o *Optimizer) Optimize(stop func() bool) int64 {
	var total int64
	checked := 0
	for o.qhead < len(o.queue) {
		c := o.queue[o.qhead]
		o.qhead++
		if o.qhead == len(o.queue) {
			o.queue = o.queue[:0]
			o.qhead = 0
		}
		o.inQueue[c] = false
		for {
			gain := o.improveCity(c)
			if gain <= 0 {
				break
			}
			total += gain
			o.Moves++
			for _, tc := range o.touched {
				o.push(tc)
			}
		}
		if stop != nil {
			checked++
			if checked&63 == 0 && stop() {
				break
			}
		}
	}
	return total
}

// OptimizeAll runs Optimize starting from every city.
func (o *Optimizer) OptimizeAll(stop func() bool) int64 {
	o.QueueAll()
	return o.Optimize(stop)
}

// improveCity attempts one accepted improving chain anchored at t1, trying
// both orientations; returns the realized gain (0 if none).
//
//distlint:hotpath
func (o *Optimizer) improveCity(t1 int32) int64 {
	for orient := 0; orient < 2; orient++ {
		var loose int32
		if orient == 0 {
			loose = o.Tour.Next(t1)
		} else {
			loose = o.Tour.Prev(t1)
		}
		if gain := o.tryChain(t1, loose); gain > 0 {
			return gain
		}
	}
	return 0
}

// applyStep performs the 2-opt flip for s given the current array state.
// Precondition: edge (t1, s.loose) is in the cycle.
//
//distlint:hotpath
func (o *Optimizer) applyStep(s step) {
	if o.Tour.Next(o.t1) == s.loose {
		o.Tour.Flip(s.loose, s.v)
	} else {
		o.Tour.Flip(s.v, s.loose)
	}
}

// undoStep reverses applyStep. Precondition: edge (t1, s.v) is in the cycle.
//
//distlint:hotpath
func (o *Optimizer) undoStep(s step) {
	if o.Tour.Next(o.t1) == s.v {
		o.Tour.Flip(s.v, s.loose)
	} else {
		o.Tour.Flip(s.loose, s.v)
	}
}

// tryChain explores sequential exchanges starting by (virtually) removing
// edge (t1, loose). The array always holds a valid cycle containing the
// temporary closing edge (t1, current loose); each step is a 2-opt flip.
// On success the best chain prefix is re-applied and its gain returned.
//
//distlint:hotpath
func (o *Optimizer) tryChain(t1, loose int32) int64 {
	o.t1 = t1
	o.path = o.path[:0]
	o.bestGain = 0
	o.bestLen = 0

	g0 := o.dist(t1, loose)
	if o.relaxDepth > 0 {
		// One multiply/divide per chain, never per candidate: dive reads
		// the precomputed limit.
		o.relaxLimit = -(g0 * relaxSlackPerMille / 1000)
	}
	o.dive(loose, g0, 0)

	if o.bestGain <= 0 {
		return 0
	}
	// Re-apply the winning prefix and collect touched cities: the
	// endpoints of every removed and added edge.
	o.touched = o.touched[:0]
	o.touched = append(o.touched, t1, loose)
	for _, s := range o.bestPath[:o.bestLen] {
		o.applyStep(s)
		o.touched = append(o.touched, s.loose, s.v, s.y)
	}
	o.length -= o.bestGain
	return o.bestGain
}

// dive extends the chain from the current loose end. G is the cumulative
// gain of removed-minus-added real edges so far (> relaxLimit on entry;
// always > 0 under the classic rule). The tour state is restored before
// dive returns.
//
// The rule is first improvement: once a child dive returns with an
// improving closing found (bestGain > 0), no further sibling is tried and
// the chain commits, as in Lin and Kernighan's original rule and
// Concorde's linkern. The chain still runs deeper along its first
// feasible candidate, since a deeper close may gain more. Depths below
// RelaxDepth are the exception: there the relaxed rule keeps its full
// breadth, because the plateau crossings it exists for are found among
// the later siblings.
//
// The chain is also edge-disjoint, as in Lin and Kernighan's original
// rule: from RelaxDepth on, a step may neither add back an edge the chain
// removed nor remove an edge it added (undoesChain). This keeps the
// greedy tail from re-adding an edge it just removed at unchanged partial
// gain, which would flip on to MaxDepth without finding anything new.
//
//distlint:hotpath
func (o *Optimizer) dive(loose int32, G int64, depth int) {
	if depth >= o.params.MaxDepth {
		return
	}
	t := o.Tour
	t1 := o.t1
	width := o.params.breadth(depth)
	tried := 0
	// Classic rule: the partial gain must stay strictly positive. Relaxed
	// rule (shallow depths only): it may dip to the per-chain limit, so
	// equal-length candidate edges do not dead-end the chain.
	limit := int64(0)
	if depth < o.relaxDepth {
		limit = o.relaxLimit
	}
	// Candidate distances come from the precomputed table: the gain test
	// costs one array read, never a metric evaluation (the break below
	// relies on the table's ascending order).
	cands, cdist := o.nbr.Cand(loose)
	for i, y := range cands {
		if y == t1 || y == loose {
			continue
		}
		g := G - cdist[i]
		if g <= limit {
			break // candidates sorted by distance: later ones fail too
		}
		// v is y's path-neighbour on the loose side, derived from the
		// current orientation of the temporary edge (t1, loose).
		var v int32
		if t.Next(t1) == loose {
			v = t.Prev(y)
		} else {
			v = t.Next(y)
		}
		if v == loose {
			continue // degenerate: y is loose's path successor
		}
		if depth >= o.relaxDepth && o.undoesChain(loose, v, y) {
			continue // would undo one of the chain's own exchanges
		}
		newG := g + o.dist(y, v)
		closeGain := newG - o.dist(v, t1)

		s := step{loose: loose, v: v, y: y}
		o.path = append(o.path, s)
		if closeGain > o.bestGain {
			o.bestGain = closeGain
			o.bestLen = len(o.path)
			o.bestPath = append(o.bestPath[:0], o.path...)
		}
		if depth+1 < o.params.MaxDepth {
			// The 2-opt flip is only needed so the deeper dive sees the
			// updated cycle; at the last level the pair of flips would be
			// pure wasted work, so it is skipped.
			o.applyStep(s)
			o.dive(v, newG, depth+1)
			o.undoStep(s)
		}
		o.path = o.path[:len(o.path)-1]

		if o.bestGain > 0 && depth >= o.relaxDepth {
			break // first improvement: commit the chain found so far
		}
		tried++
		if tried >= width {
			break
		}
	}
}

// undoesChain reports whether the step that adds (loose,y) and removes
// (v,y) would add back an edge the chain removed or remove an edge it
// added. Each earlier step removed (v_i,y_i) and added (loose_i,y_i), two
// edges that end at y_i, so one scan of the path (at most MaxDepth steps)
// checks both. No other overlap is possible: an edge the chain added can
// be added again only after it was removed, and vice versa. The first
// removed edge (t1, path[0].loose) needs no check either: no step touches
// an edge at t1, since y == t1 is skipped and so v != t1.
//
//distlint:hotpath
func (o *Optimizer) undoesChain(loose, v, y int32) bool {
	for _, s := range o.path {
		switch s.y {
		case y:
			if loose == s.v || v == s.loose {
				return true
			}
		case loose:
			if y == s.v {
				return true
			}
		case v:
			if y == s.loose {
				return true
			}
		}
	}
	return false
}
