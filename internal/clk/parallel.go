package clk

import (
	"context"
	"runtime"
	"sync"
	"time"

	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// workerSeedSalt decorrelates worker RNG streams. Worker 0's seed is the
// group seed itself, which is what makes a one-worker Group byte-identical
// to a plain Solver Run with the same seed.
const workerSeedSalt = 104_729

// eliteK bounds the elite pool: a merge pass fuses the best eliteK
// distinct-length tours seen at round barriers.
const eliteK = 5

// KicksPerRound is the default number of kicks a worker chains per round
// on an n-city instance, max(20, n/10): enough to amortize the barrier,
// scaling work with instance size. The distributed EA's KicksPerCall
// default is the same rule.
func KicksPerRound(n int) int64 { return max(20, int64(n/10)) }

// GroupParams configures a parallel CLK group. The zero value asks for
// GOMAXPROCS workers with default merge cadence.
type GroupParams struct {
	// Workers is the number of concurrent kickers (<= 0 means GOMAXPROCS).
	Workers int
	// MergeEvery runs an elite merge pass at the first round boundary
	// after every MergeEvery group-total kicks. 0 picks a default
	// proportional to instance size; negative disables merging. One worker
	// never merges: fusing needs tours from at least two searchers.
	MergeEvery int64
}

// elite is a tour kept for merging; it is never mutated once pooled.
type elite struct {
	tour   tsp.Tour
	length int64
}

// elitePool keeps the best limit distinct-length tours seen at round
// barriers, ordered ascending by length. Distinct lengths double as a
// cheap tour-diversity filter: fusing identical tours adds nothing to the
// union graph. Only the coordinator touches it, between rounds.
type elitePool struct {
	limit  int
	elites []elite
}

// slot returns where a tour of this length belongs, or -1 when the pool
// would not keep it (a length already pooled, or not among the best
// limit), so callers copy a tour only when it will be kept.
func (p *elitePool) slot(length int64) int {
	i := 0
	for i < len(p.elites) && p.elites[i].length < length {
		i++
	}
	if i >= p.limit || (i < len(p.elites) && p.elites[i].length == length) {
		return -1
	}
	return i
}

func (p *elitePool) offer(e elite) {
	i := p.slot(e.length)
	if i < 0 {
		return
	}
	p.elites = append(p.elites, elite{})
	copy(p.elites[i+1:], p.elites[i:])
	p.elites[i] = e
	if len(p.elites) > p.limit {
		p.elites = p.elites[:p.limit]
	}
}

// tally is one worker's share of a round: the kicks it may make, and the
// kicks and strict improvements it made.
type tally struct {
	quota, kicks, improves int64
}

// Group runs Workers CLK searchers over one instance in synchronous
// rounds. They share the read-only CSR candidate table; everything mutable
// is per-worker. In a round every worker chains kicks from its own
// incumbent with its own seeded stream. A barrier closes the round; the
// winner is the lowest length, ties going to the lowest worker index.
// Between rounds the coordinator pools elite tours, runs a due merge, and
// restarts every worker strictly behind the best tour from it. Nothing
// depends on completion order, so a kick-bounded run is a function of the
// seed and the worker count alone, whatever the scheduler does.
//
// A Group is built once and Run once.
type Group struct {
	inst       *tsp.Instance
	mergeEvery int64 // 0 = never
	workers    []*Solver
	tallies    []tally

	kicks    int64
	improves int64
	merges   int64
	pool     elitePool
}

// NewGroup builds the workers concurrently (construction cost is one full
// LK pass per worker, aborted early if ctx is cancelled — the workers then
// start from less-optimized tours, which only matters if Run is still
// called). Candidate lists are built once and shared; pass p.Neighbors to
// share them wider still (e.g. across benchmark configs).
func NewGroup(ctx context.Context, inst *tsp.Instance, p Params, gp GroupParams, seed int64) *Group {
	stop := cancelPoll(ctx)
	p = p.normalize()
	p.Neighbors = resolveNeighbors(inst, p)
	if gp.Workers <= 0 {
		gp.Workers = runtime.GOMAXPROCS(0)
	}
	if gp.MergeEvery == 0 {
		// Default cadence: merge work stays a small fraction of kick work.
		gp.MergeEvery = int64(8 * inst.N())
	}
	if gp.MergeEvery < 0 || gp.Workers == 1 {
		gp.MergeEvery = 0
	}
	g := &Group{
		inst:       inst,
		mergeEvery: gp.MergeEvery,
		workers:    make([]*Solver, gp.Workers),
		tallies:    make([]tally, gp.Workers),
		pool:       elitePool{limit: eliteK},
	}
	var wg sync.WaitGroup
	for i := range g.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.workers[i] = newSolver(inst, p, seed+int64(i)*workerSeedSalt, stop)
		}(i)
	}
	wg.Wait()
	return g
}

// Workers returns the resolved worker count.
func (g *Group) Workers() int { return len(g.workers) }

// SetRecorder attaches a recorder to worker i and publishes its initial
// incumbent length, mirroring what the facade does for a plain Solver.
func (g *Group) SetRecorder(i int, rec *obs.Recorder) {
	g.workers[i].Rec = rec
	rec.SetBest(g.workers[i].BestLength())
}

// Merges returns how many elite merge passes completed.
func (g *Group) Merges() int64 { return g.merges }

// BestLength returns the best worker incumbent's length.
func (g *Group) BestLength() int64 { return g.workers[g.best()].bestLen }

// best returns the index of the best worker: lowest incumbent length, ties
// to the lowest index.
func (g *Group) best() int {
	w := 0
	for i, s := range g.workers {
		if s.bestLen < g.workers[w].bestLen {
			w = i
		}
	}
	return w
}

// Run chains rounds of KicksPerRound kicks per worker until the budget
// expires or ctx is done. The budget is group-scoped: MaxKicks is an exact
// group total (the last round splits what is left evenly, remainder to the
// lowest indices), and Target stops everyone once a worker reaches it.
//
// With one worker the rounds run inline and the result is byte-identical
// to Solver.Run under the same seed. With more, a kick-bounded run is still
// a function of the seed and the worker count alone (see DESIGN.md §9).
func (g *Group) Run(ctx context.Context, b Budget) Result {
	//lint:ignore nodeterminism Elapsed is reporting-only; it never feeds back into the seeded search
	start := time.Now()
	// The construction winner seeds the first round: workers behind it
	// restart from its tour before kicking.
	g.barrier(ctx, g.best(), false)
	k := KicksPerRound(g.inst.N())
	nextMerge := g.mergeEvery
	for !b.expired(ctx, g.kicks, g.BestLength()) {
		g.share(k, b.MaxKicks)
		w := g.round(ctx, b.Target)
		merge := g.mergeEvery > 0 && g.kicks >= nextMerge
		if merge {
			nextMerge = (g.kicks/g.mergeEvery + 1) * g.mergeEvery
		}
		g.barrier(ctx, w, merge)
	}
	tour, length := g.workers[g.best()].Best()
	return Result{
		Tour:     tour,
		Length:   length,
		Kicks:    g.kicks,
		Improves: g.improves,
		//lint:ignore nodeterminism Elapsed is reporting-only; it never feeds back into the seeded search
		Elapsed: time.Since(start),
	}
}

// share sets the round's quotas: k kicks per worker, or, when less than a
// full round is left of a positive group total, an even split of the rest
// with the remainder going to the lowest indices.
func (g *Group) share(k, total int64) {
	w := int64(len(g.workers))
	left := total - g.kicks
	for i := range g.tallies {
		q := k
		if total > 0 && left < k*w {
			q = left / w
			if int64(i) < left%w {
				q++
			}
		}
		g.tallies[i].quota = q
	}
}

// round runs one round on the tallies' quotas, worker 0 on the calling
// goroutine and the others on their own, and returns the winner after the
// barrier.
func (g *Group) round(ctx context.Context, target int64) int {
	if len(g.workers) == 1 {
		g.runWorker(ctx, 0, target)
	} else {
		var wg sync.WaitGroup
		for i := 1; i < len(g.workers); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g.runWorker(ctx, i, target)
			}(i)
		}
		g.runWorker(ctx, 0, target)
		wg.Wait()
	}
	for _, t := range g.tallies {
		g.kicks += t.kicks
		g.improves += t.improves
	}
	return g.best()
}

// runWorker is worker i's part of a round. It writes only tallies[i] and
// worker i's own solver.
func (g *Group) runWorker(ctx context.Context, i int, target int64) {
	s, t := g.workers[i], &g.tallies[i]
	t.kicks, t.improves = 0, 0
	if t.quota > 0 {
		t.kicks, t.improves = s.chain(ctx, cancelPoll(ctx), Budget{MaxKicks: t.quota, Target: target})
	}
}

// barrier closes a round won by worker w: it offers every worker's
// incumbent to the elite pool, runs the merge pass when due, and restarts
// every worker strictly behind the best tour from it. Merge and adopt
// events are recorded in worker-index order.
func (g *Group) barrier(ctx context.Context, w int, merge bool) {
	if len(g.workers) == 1 {
		return // nothing to fuse or adopt; the pool's copies would be waste
	}
	for _, s := range g.workers {
		if g.pool.slot(s.bestLen) >= 0 {
			t, l := s.Best()
			g.pool.offer(elite{t, l})
		}
	}
	var tour tsp.Tour
	length, from := g.workers[w].bestLen, w
	if merge {
		if t, l, ok := g.mergeOnce(ctx, w); ok && l < length {
			tour, length, from = t, l, -1
			g.pool.offer(elite{t, l})
		}
	}
	for _, s := range g.workers {
		if s.bestLen <= length {
			continue
		}
		if tour == nil {
			tour, _ = g.workers[w].Best()
		}
		s.SetTour(tour)
		s.Rec.Record(obs.KindAdopt, length, from)
	}
}

// mergeOnce fuses the elite pool: restricted LK over the union graph of
// the elite tours, started from worker w's incumbent. It records the pass
// on worker 0's recorder and returns the fused tour.
func (g *Group) mergeOnce(ctx context.Context, w int) (tsp.Tour, int64, bool) {
	if len(g.pool.elites) < 2 {
		return nil, 0, false
	}
	tours := make([]tsp.Tour, len(g.pool.elites))
	for i, e := range g.pool.elites {
		tours[i] = e.tour
	}
	cand, err := neighbor.FromEdges(g.inst, neighbor.UnionOfTours(g.inst.N(), tours))
	if err != nil {
		// Union graphs of valid tours cannot produce bad edges; skip the
		// merge rather than corrupt the incumbent if that invariant breaks.
		return nil, 0, false
	}
	start, _ := g.workers[w].Best()
	// The deep parameters tour merging uses: the union graph is sparse.
	opt := lk.NewOptimizer(g.inst, cand, start, lk.Params{MaxDepth: 60, Breadth: []int{10, 6, 4, 2}})
	opt.OptimizeAll(cancelPoll(ctx))
	g.merges++
	g.workers[0].Rec.Record(obs.KindMerge, opt.Length(), -1)
	return opt.Tour.Tour(), opt.Length(), true
}
