package main

import (
	"context"
	"math"
	"math/rand"
	"time"
)

// The development host's speed drifts by 20% and more over minutes
// (README.md, "Host noise"). A probe is a fixed kernel of the benchmark's
// own, timed in short passes between a workload's operations on the
// workload's own goroutine, so it never runs while program code does.
// Its median pass time gives the host's speed over the run, and the gated
// times are reported in reference seconds: wall seconds scaled by
// probeRefMS over that median. The probe is not program code, so a change
// to the program moves the gated times in full.
const (
	probeCities = 20000
	probeSteps  = 400_000
	// probeRefMS defines a reference second: one pass of the probe takes
	// probeRefMS on the reference host.
	probeRefMS = 5.0
	// probeEvery is the wall time between passes.
	probeEvery = 100 * time.Millisecond
)

// probe walks 20000 cities' 10-entry neighbour lists and takes a square
// root per step: the memory shape of an LK dive on a working set of about
// a megabyte.
type probe struct {
	nbr    []int32
	xs, ys []float64
	passMS []float64
	spent  time.Duration // total time in passes
	last   time.Time     // end of the latest pass
	sink   float64
	// tr, parent and op place the passes' spans in a traced run.
	tr         *tracer
	parent, op int
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	p := &probe{nbr: make([]int32, probeCities*10), xs: make([]float64, probeCities), ys: make([]float64, probeCities)}
	for i := range p.xs {
		p.xs[i], p.ys[i] = rng.Float64()*1e6, rng.Float64()*1e6
		for j := 0; j < 10; j++ {
			p.nbr[i*10+j] = int32((i + rng.Intn(101) - 50 + probeCities) % probeCities)
		}
	}
	p.last = time.Now()
	return p
}

// pass runs the kernel once and records its time.
func (p *probe) pass() {
	id := p.tr.begin("probe", p.parent, p.op)
	defer p.tr.end(id)
	t := time.Now()
	c, s := int32(0), uint32(12345)
	acc := 0.0
	for i := 0; i < probeSteps; i++ {
		s = s*1664525 + 1013904223
		d := p.nbr[int(c)*10+int(s>>28)%10]
		dx, dy := p.xs[c]-p.xs[d], p.ys[c]-p.ys[d]
		acc += math.Sqrt(dx*dx + dy*dy)
		if s>>31 == 1 {
			c = d
		} else {
			c = int32((int(c) + int(s>>8)) % probeCities)
		}
	}
	p.sink += acc
	p.last = time.Now()
	d := p.last.Sub(t)
	p.spent += d
	p.passMS = append(p.passMS, ms(d))
}

// tick runs a pass when probeEvery has gone by since the latest one.
func (p *probe) tick() {
	if time.Since(p.last) >= probeEvery {
		p.pass()
	}
}

// scale converts wall seconds of this run to reference seconds.
func (p *probe) scale() float64 { return probeRefMS / median(p.passMS) }

// probeCtx hands a probe to a call with no hook between its operations:
// simnet.Run polls its context's Err between events, on its own
// goroutine, and each poll may run a pass. Every heapEvery-th poll also
// reads the live heap: the polls fall at the same points of a seeded
// search, so these readings are fixed points too. Err always reports nil
// and Done is Background's, so the call's search is unchanged.
type probeCtx struct {
	context.Context
	p     *probe
	heap  *heapPeak
	polls *int
}

// heapEvery polls between heap readings: about 30 per 64-node cluster.
const heapEvery = 200

func (c probeCtx) Err() error {
	c.p.tick()
	if *c.polls++; *c.polls%heapEvery == 0 {
		c.heap.mark()
	}
	return nil
}
