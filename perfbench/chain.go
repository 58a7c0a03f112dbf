package main

import (
	"fmt"
	"math"
	"time"

	"distclk/internal/clk"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// clk-chain-e3k: plain CLK chains (random-walk kicks, knn candidates), each
// on its own uniform 3000-city instance, for a fixed kick budget of
// chainKicksPerSecond kicks per chain per nominal second (2700 = 0.9n at
// 30s).
const (
	chainN = 3000
	// chainCount independent chains run in one run. The kick work of one
	// chain varies with its seed (quartiles 16.5% apart over ten seeds), so
	// a run sums three to average that out (README.md, "Host noise").
	chainCount          = 3
	chainKicksPerSecond = 90
	// chainSetupReps set-ups per chain: the one the chain runs from, then
	// repetitions spread over its kicks, so the set-up median samples the
	// whole run rather than one moment of it (README.md, "Host noise").
	chainSetupReps = 6
	// chainTargetOverMST places the per-layer quality target: every seed
	// tried crosses it well inside the budget (README.md, "Targets").
	chainTargetOverMST = 1.13
)

// chain is one chain's inputs and what it produced.
type chain struct {
	pts    []point
	in     *tsp.Instance
	seed   int64
	target int64

	nb                     *neighbor.Lists
	run                    time.Duration
	setupS, buildMS        []float64
	tour                   tsp.Tour
	length                 int64
	crossed                int // kick that first reached the target (0 = never)
	ttq                    time.Duration
	kickUS                 []float64
	kicks, accepts, events int64
}

func runChain(seed int64, seconds int, tr *tracer) *outcome {
	o := newOutcome()
	kicks := chainKicksPerSecond * seconds
	chains := make([]*chain, chainCount)
	for i := range chains {
		pts := genUniform(chainN, rngFor(seed, int64(1+10*i)))
		chains[i] = &chain{
			pts:    pts,
			in:     toInstance(fmt.Sprintf("u%d-s%d-%d", chainN, seed, i), pts),
			seed:   rngFor(seed, int64(2+10*i)).Int63(),
			target: int64(math.Ceil(chainTargetOverMST * float64(mstLength(pts)))),
		}
	}

	var heap heapPeak
	pr := newProbe()
	pr.tr = tr
	var setups, lengths, crossings, ttqs, kickUS, buildMS []float64
	var run time.Duration
	var attempts, accepts, events int64
	for i, c := range chains {
		c.runOnce(kicks, &heap, pr, tr, i+1)
		setups = append(setups, c.setupS...)
		run += c.run
		lengths = append(lengths, float64(c.length))
		crossings = append(crossings, float64(c.crossed))
		ttqs = append(ttqs, c.ttq.Seconds())
		kickUS = append(kickUS, c.kickUS...)
		buildMS = append(buildMS, c.buildMS...)
		attempts, accepts, events = attempts+c.kicks, accepts+c.accepts, events+c.events
	}

	for i, c := range chains {
		o.attempted++
		if err := checkTour(c.pts, c.tour, c.length); err != nil {
			o.fail("chain %d tour: %v", i, err)
		}
		if c.crossed == 0 {
			o.fail("chain %d never reached the target %d (best %d)", i, c.target, c.length)
		}
	}
	tourLen := mean(lengths)
	o.e2e.set("setup_s", median(setups)*pr.scale(), "s")
	o.runS = run.Seconds()
	o.e2e.set("run_s", o.runS*pr.scale(), "s")
	o.e2e.set("tour_len", tourLen, "length")
	o.e2e.set("peak_heap_mb", heap.mib(), "MiB")
	o.det["tour_len"] = tourLen
	for i, k := range crossings {
		o.det[fmt.Sprintf("clk.kicks_to_target.%d", i)] = k
	}
	if tr == nil {
		return o
	}

	// The ladder runs on the first chain's instance; the chain's own kicks
	// and candidate builds replace its kick and build rungs.
	first := chains[0]
	L := o.layer
	ladder(L, first.pts, first.in, seed)
	L.set("clk.kick_us", median(kickUS), "us")
	L.set("clk.kick_p99_us", quantile(kickUS, 0.99), "us")
	L.set("clk.kicks_per_s", float64(kicks*chainCount)/o.runS, "1/s")
	L.set("clk.accept_ratio", float64(accepts)/float64(attempts), "ratio")
	L.set("host.probe_ms", median(pr.passMS), "ms")
	L.set("neighbor.build_ms", median(buildMS), "ms")
	ins := make([]*tsp.Instance, len(chains))
	for i, c := range chains {
		ins[i] = c.in
	}
	L.set("neighbor.auto_strategies", float64(autoStrategies(ins)), "count")
	o.detail.set("clk.kicks_to_target", median(crossings), "count")
	o.detail.set("clk.ttq_s", median(ttqs), "s")
	o.detail.set("obs.events", float64(events), "count")
	return o
}

// setUp builds the candidate lists and the solver (construction and
// descent), and records how long that took.
func (c *chain) setUp(tr *tracer, root, op int) (*clk.Solver, *neighbor.Lists) {
	t := time.Now()
	id := tr.begin("neighbor.Build", root, op)
	nb := neighbor.Build(c.in, 10)
	tr.end(id)
	c.buildMS = append(c.buildMS, ms(time.Since(t)))
	p := clk.DefaultParams()
	p.Kick = clk.KickRandomWalk
	p.Neighbors = nb
	id = tr.begin("clk.New", root, op)
	s := clk.New(c.in, p, c.seed)
	tr.end(id)
	c.setupS = append(c.setupS, time.Since(t).Seconds())
	return s, nb
}

// runOnce sets the chain up and runs its kicks, in chainSetupReps
// segments: before each later segment the set-up is repeated, timed and
// dropped. Probe passes run between kicks, outside the timed kicks. The
// heap is read after the set-up and after the last kick, while the solver
// is held. The chain's spans share op.
func (c *chain) runOnce(kicks int, heap *heapPeak, pr *probe, tr *tracer, op int) {
	root := tr.begin("chain", 0, op)
	defer tr.end(root)
	pr.parent, pr.op = root, op
	s, nb := c.setUp(tr, root, op)
	c.nb = nb
	if tr != nil {
		s.Rec = obs.NewRecorder(0, obs.SinkFunc(func(obs.Event) { c.events++ }))
	}
	heap.mark()

	for seg := 0; seg < chainSetupReps; seg++ {
		if seg > 0 {
			c.setUp(tr, root, op)
		}
		t0, spent0 := time.Now(), pr.spent
		for k := seg*kicks/chainSetupReps + 1; k <= (seg+1)*kicks/chainSetupReps; k++ {
			id := tr.begin("clk.KickOnce", root, op)
			s.KickOnce()
			tr.end(id)
			if tr != nil {
				sp := tr.spans[id-1]
				c.kickUS = append(c.kickUS, float64(sp.End-sp.Start)/1e3)
			}
			if c.crossed == 0 && s.BestLength() <= c.target {
				c.crossed, c.ttq = k, c.run+time.Since(t0)-(pr.spent-spent0)
			}
			pr.tick()
		}
		c.run += time.Since(t0) - (pr.spent - spent0)
	}
	c.tour, c.length = s.Best()
	heap.mark()
	if tr != nil {
		snap := s.Rec.Snapshot()
		c.kicks, c.accepts = snap.Kicks, snap.KickAccepts
	}
}
