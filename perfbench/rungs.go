package main

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"distclk/internal/clk"
	"distclk/internal/construct"
	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

func candEdges(nb *neighbor.Lists) int {
	total := 0
	for c := 0; c < nb.N(); c++ {
		total += nb.Len(int32(c))
	}
	return total
}

// The replay rungs rerun, on a workload's own inputs, the public calls an
// outer call makes internally, so their cost can be read separately.

const replayReps = 5

// ladder measures every rung of the Flip -> lk -> clk -> core -> dist
// ladder on one of the workload's instances, so that the traced run of
// every workload prints the same per-layer names. A workload then
// overwrites the rungs it measures natively (the chain's own kicks,
// serve-mix's sample of its instances).
func ladder(L metrics, pts []point, in *tsp.Instance, seed int64) {
	L.set("tsp.parse_ms", replayParse(pts), "ms")
	L.set("tsp.describe_ms", replayDescribe(in), "ms")
	var nb *neighbor.Lists
	L.set("neighbor.build_ms", 1e3*medianSeconds(replayReps, func() { nb = neighbor.Build(in, 10) }), "ms")
	L.set("neighbor.cands", float64(candEdges(nb)), "count")
	L.set("neighbor.auto_strategies", float64(autoStrategies([]*tsp.Instance{in})), "count")
	L.set("construct.build_ms", replayConstruct(in, nb), "ms")
	L.set("lk.descent_ms", replayDescent(in, nb, lk.DefaultParams()), "ms")

	k := replayKicks(in, nb, seed)
	L.set("clk.kick_us", median(k.kickUS), "us")
	L.set("clk.kick_p99_us", quantile(k.kickUS, 0.99), "us")
	L.set("clk.kicks_per_s", float64(len(k.kickUS))/k.run.Seconds(), "1/s")
	L.set("clk.accept_ratio", float64(k.accepts)/float64(len(k.kickUS)), "ratio")
	L.set("lk.optimize_us", replayOptimize(in, nb, k.tour, rngFor(seed, 3)), "us")
	L.set("lk.flip_ns", replayFlip(k.tour, rngFor(seed, 4)), "ns")

	L.set("core.step_ms", replayStep(context.Background(), core.NewNode(0, in, simEA(nb), core.NopComm{}, seed)), "ms")
	c := replayCodec(k.stream, k.lens)
	L.set("dist.encode_us", c.encUS, "us")
	L.set("dist.decode_us", c.decUS, "us")
	L.set("dist.delta_share", c.deltaShare, "ratio")
	L.set("dist.bytes_per_tour", c.bytesPerTour, "B")
}

// autoStrategies counts the distinct candidate strategies neighbor.Auto
// picks for the instances (delaunay with relaxation counts apart).
func autoStrategies(ins []*tsp.Instance) int {
	picks := map[string]bool{}
	for _, in := range ins {
		picks[autoPick(neighbor.Auto(tsp.Describe(in)))] = true
	}
	return len(picks)
}

func autoPick(ch neighbor.Choice) string {
	if ch.RelaxDepth > 0 {
		return ch.Strategy + "+relax"
	}
	return ch.Strategy
}

func replayParse(pts []point) float64 {
	text := tsplib("replay", pts)
	return 1e3 * medianSeconds(replayReps, func() { tsp.ReadTSPLIB(strings.NewReader(text)) })
}

func replayDescribe(in *tsp.Instance) float64 {
	return 1e3 * medianSeconds(replayReps, func() { tsp.Describe(in) })
}

func replayConstruct(in *tsp.Instance, nb *neighbor.Lists) float64 {
	return 1e3 * medianSeconds(replayReps, func() { construct.Build(construct.QuickBoruvka, in, nb, nil) })
}

// replayDescent times lk.NewOptimizer + OptimizeAll from the Quick-Borůvka
// tour, the initial descent every solve starts with.
func replayDescent(in *tsp.Instance, nb *neighbor.Lists, p lk.Params) float64 {
	start := construct.Build(construct.QuickBoruvka, in, nb, nil)
	return 1e3 * medianSeconds(replayReps, func() {
		lk.NewOptimizer(in, nb, start, p).OptimizeAll(nil)
	})
}

// replayOptimize drives the kick loop from outside: one double bridge on
// four cities of a random walk over the candidate lists (the chain's kick),
// then Optimize over the touched cities. It returns the median Optimize
// time in microseconds.
func replayOptimize(in *tsp.Instance, nb *neighbor.Lists, tour tsp.Tour, rng *rand.Rand) float64 {
	const reps = 300
	opt := lk.NewOptimizer(in, nb, tour, lk.DefaultParams())
	d := in.DistFunc()
	us := make([]float64, reps)
	for i := range us {
		delta, touched := clk.DoubleBridge(opt.Tour, walkCities(nb, rng), d)
		opt.SetLength(opt.Length() + delta)
		opt.QueueCities(touched[:])
		t := time.Now()
		opt.Optimize(nil)
		us[i] = float64(time.Since(t)) / 1e3
	}
	return median(us)
}

// walkCities returns four distinct cities met on a random walk over the
// candidate lists.
func walkCities(nb *neighbor.Lists, rng *rand.Rand) [4]int32 {
	for {
		c := int32(rng.Intn(nb.N()))
		var out [4]int32
		k := 0
		for step := 0; step < 50 && k < 4; step++ {
			if !contains(out[:k], c) {
				out[k] = c
				k++
			}
			for j := 0; j < 5; j++ {
				c = nb.Of(c)[rng.Intn(nb.Len(c))]
			}
		}
		if k == 4 {
			return out
		}
	}
}

func contains(xs []int32, x int32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// kickReplay is what replayKicks recorded.
type kickReplay struct {
	kickUS  []float64
	run     time.Duration
	accepts int64
	tour    tsp.Tour // the best after the last kick
	// stream is the incumbents the chain passed through, from its start.
	stream []tsp.Tour
	lens   []int64
}

// replayKicks runs the chain workload's kick loop (random-walk kicks,
// the given candidates) for replayKickCount kicks on the instance and
// records each kick's time, the accepted kicks and the incumbents it
// passes through.
const (
	replayKickCount = 300
	replayStreamMax = 64
)

func replayKicks(in *tsp.Instance, nb *neighbor.Lists, seed int64) kickReplay {
	p := clk.DefaultParams()
	p.Kick = clk.KickRandomWalk
	p.Neighbors = nb
	s := clk.New(in, p, seed)
	var k kickReplay
	s.Rec = obs.NewRecorder(0, nil)
	t, l := s.Best()
	k.stream, k.lens = append(k.stream, t), append(k.lens, l)
	k.kickUS = make([]float64, replayKickCount)
	for i := range k.kickUS {
		t0 := time.Now()
		better := s.KickOnce()
		d := time.Since(t0)
		k.run += d
		k.kickUS[i] = float64(d) / 1e3
		if better && len(k.stream) < replayStreamMax {
			t, l := s.Best()
			k.stream, k.lens = append(k.stream, t), append(k.lens, l)
		}
	}
	k.accepts = s.Rec.Snapshot().KickAccepts
	k.tour, _ = s.Best()
	return k
}

// replayStep times Node.Step over NopComm on the instance and EA
// configuration of node; it returns the median step in milliseconds.
func replayStep(ctx context.Context, node *core.Node) float64 {
	const steps = 20
	node.Begin(ctx, core.Budget{})
	ds := make([]float64, steps)
	for i := range ds {
		t := time.Now()
		node.Step(ctx)
		ds[i] = ms(time.Since(t))
	}
	return median(ds)
}

type codecReplay struct{ encUS, decUS, deltaShare, bytesPerTour float64 }

// replayCodec runs DeltaEncoder.Encode and DeltaDecoder.Decode over an
// incumbent stream with the sim workload's keyframe interval and returns
// the mean times per tour in microseconds, the share of tours sent as
// deltas and the mean wire bytes per tour.
func replayCodec(stream []tsp.Tour, lens []int64) codecReplay {
	var c codecReplay
	var enc dist.DeltaEncoder
	wire := make([]dist.WireTour, len(stream))
	t := time.Now()
	for i, tour := range stream {
		wire[i] = enc.Encode(0, tour, lens[i], 16)
	}
	c.encUS = float64(time.Since(t)) / 1e3 / float64(len(stream))
	var dec dist.DeltaDecoder
	t = time.Now()
	for _, w := range wire {
		dec.Decode(w)
	}
	c.decUS = float64(time.Since(t)) / 1e3 / float64(len(stream))
	deltas, bytes := 0, 0
	for i := range wire {
		if !wire[i].Full {
			deltas++
		}
		bytes += wire[i].WireBytes()
	}
	c.deltaShare = float64(deltas) / float64(len(wire))
	c.bytesPerTour = float64(bytes) / float64(len(wire))
	return c
}

// replayFlip returns the mean ArrayTour.Flip time over random city pairs.
func replayFlip(tour tsp.Tour, rng *rand.Rand) float64 {
	const flips = 20000
	at := lk.NewArrayTour(tour)
	pairs := make([][2]int32, flips)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(len(tour))), int32(rng.Intn(len(tour)))}
	}
	t := time.Now()
	for _, p := range pairs {
		at.Flip(p[0], p[1])
	}
	return float64(time.Since(t)) / flips
}
