package lk

import (
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// Scratch recycles an Optimizer's working buffers across solves. The
// buffers (active-city queue, don't-look bits, chain paths) are sized by
// instance N and Params.MaxDepth; a long-lived service reuses a Scratch
// per job instead of re-allocating them (see internal/serve). A Scratch
// backs AT MOST ONE live Optimizer at a time. The zero value is ready to
// use; a nil *Scratch means "allocate fresh".
type Scratch struct {
	queue    []int32
	inQueue  []bool
	path     []step
	bestPath []step
	touched  []int32
}

// owns reports whether o's queue backing array came from sc — the
// pool-hit assertion used by scratch-reuse tests.
func (sc *Scratch) owns(o *Optimizer) bool {
	if sc == nil || o == nil || cap(sc.queue) == 0 || cap(o.queue) == 0 {
		return false
	}
	return &sc.queue[:1][0] == &o.queue[:1][0]
}

// NewOptimizerWith is NewOptimizer drawing the scratch buffers from sc
// (nil = allocate fresh). Buffers grow to fit and are retained by sc, so
// the optimizer aliases sc until the next NewOptimizerWith call.
func NewOptimizerWith(sc *Scratch, inst *tsp.Instance, nbr *neighbor.Lists, tour tsp.Tour, params Params) *Optimizer {
	if sc == nil {
		sc = &Scratch{}
	}
	n := inst.N()
	if cap(sc.queue) < n {
		sc.queue = make([]int32, 0, n)
	}
	if cap(sc.inQueue) < n {
		sc.inQueue = make([]bool, n)
	}
	sc.inQueue = sc.inQueue[:n]
	clear(sc.inQueue)
	if cap(sc.path) < params.MaxDepth {
		sc.path = make([]step, 0, params.MaxDepth)
	}
	if cap(sc.bestPath) < params.MaxDepth {
		sc.bestPath = make([]step, 0, params.MaxDepth)
	}
	if t := 3*params.MaxDepth + 2; cap(sc.touched) < t {
		sc.touched = make([]int32, 0, t)
	}
	o := &Optimizer{
		inst:     inst,
		nbr:      nbr,
		params:   params,
		Tour:     NewArrayTour(tour),
		dist:     inst.DistFunc(),
		inQueue:  sc.inQueue,
		queue:    sc.queue[:0],
		path:     sc.path[:0],
		bestPath: sc.bestPath[:0],
		touched:  sc.touched[:0],
	}
	o.length = tour.Length(inst)
	if params.RelaxDepth > 0 {
		o.relaxDepth = params.RelaxDepth
		o.relaxPerMille = int64(params.RelaxSlackPerMille)
		if o.relaxPerMille <= 0 {
			o.relaxPerMille = defaultRelaxSlackPerMille
		}
	}
	return o
}
