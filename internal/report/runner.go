package report

import (
	"context"
	"fmt"
	"time"

	"distclk/internal/clk"
	"distclk/internal/core"
	"distclk/internal/heldkarp"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/simnet"
	"distclk/internal/stats"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// Trace is one run's non-increasing quality trace over a deterministic
// work axis: kick count for plain CLK, virtual microseconds for simnet
// cluster runs. Smoke-tier axes never touch a wall clock.
type Trace struct {
	Label string
	X     []int64 // kick index, or virtual time in microseconds
	L     []int64 // incumbent length at X
	Final int64
}

// At evaluates the step function at x (first value before the first point).
func (t Trace) At(x int64) int64 {
	if len(t.X) == 0 {
		return 0
	}
	cur := t.L[0]
	for i, xi := range t.X {
		if xi > x {
			break
		}
		cur = t.L[i]
	}
	return cur
}

// Reach returns the first x at which the trace is <= target.
func (t Trace) Reach(target int64) (int64, bool) {
	for i, l := range t.L {
		if l <= target {
			return t.X[i], true
		}
	}
	return 0, false
}

// meanAt averages runs' traces at x, ignoring empty series.
func meanAt(runs []Trace, x int64) float64 {
	var vals []float64
	for _, t := range runs {
		if v := t.At(x); v > 0 {
			vals = append(vals, float64(v))
		}
	}
	return stats.Mean(vals)
}

// bestFinal is the minimum final length across runs (0 if none).
func bestFinal(runs []Trace) int64 {
	var best int64
	for _, t := range runs {
		if t.Final > 0 && (best == 0 || t.Final < best) {
			best = t.Final
		}
	}
	return best
}

// meanReach averages the work to reach target over the runs that do.
func meanReach(runs []Trace, target int64) (mean float64, reached int) {
	var xs []float64
	for _, t := range runs {
		if x, ok := t.Reach(target); ok {
			xs = append(xs, float64(x))
		}
	}
	return stats.Mean(xs), len(xs)
}

// SimRun couples a cluster run's quality trace with the full simnet result
// (event stream, fault ledger, per-node stats).
type SimRun struct {
	Trace Trace
	Res   simnet.Result
}

// Runner executes manifest experiments through the repository's
// deterministic entry points: seeded clk.Solver loops budgeted in kicks,
// and simnet clusters budgeted in EA iterations on the virtual clock.
// Runs are cached so experiments sharing a configuration (Tables 3-5 and
// Figure 2 share CLK runs, for example) execute once.
type Runner struct {
	instances map[string]*tsp.Instance
	hk        map[string]int64
	clkCache  map[string][]Trace
	simCache  map[string][]SimRun
}

// NewRunner prepares a smoke-tier runner.
func NewRunner() *Runner {
	return &Runner{
		instances: map[string]*tsp.Instance{},
		hk:        map[string]int64{},
		clkCache:  map[string][]Trace{},
		simCache:  map[string][]SimRun{},
	}
}

// standIn resolves a paper instance name to its smoke-tier stand-in: the
// paper's family at 1/smokeSizeScale of its size, never below
// smokeMinCities.
func standIn(name string) (tsp.Family, int, error) {
	fam, n, err := tsp.PaperInstance(name)
	if err != nil {
		return 0, 0, err
	}
	return fam, max(n/smokeSizeScale, smokeMinCities), nil
}

// Instance materializes (and caches) the stand-in for a paper instance.
func (r *Runner) Instance(name string) (*tsp.Instance, error) {
	if in, ok := r.instances[name]; ok {
		return in, nil
	}
	fam, n, err := standIn(name)
	if err != nil {
		return nil, err
	}
	in := tsp.Generate(fam, n, smokeInstanceSeed)
	in.Name = name + "-standin"
	r.instances[name] = in
	return in, nil
}

// HKBound computes (and caches) the Held-Karp quality denominator.
func (r *Runner) HKBound(name string) (int64, error) {
	if v, ok := r.hk[name]; ok {
		return v, nil
	}
	in, err := r.Instance(name)
	if err != nil {
		return 0, err
	}
	res := heldkarp.LowerBound(in, heldkarp.Options{Iterations: smokeHKIters})
	r.hk[name] = res.Bound
	return res.Bound, nil
}

// CLKRuns performs (and caches) `runs` seeded plain-CLK runs of `kicks`
// kicks each under the given kick strategy.
func (r *Runner) CLKRuns(name string, kick clk.KickStrategy, kicks int64, runs int, seed int64) ([]Trace, error) {
	p := clk.DefaultParams()
	p.Kick = kick
	return r.clkRuns(fmt.Sprintf("%s/CLK-%v", name, kick), name, p, kicks, runs, seed)
}

// CLKCandRuns is CLKRuns under an explicit candidate-strategy / gain-rule
// configuration (kick strategy stays the random-walk default): `cand` names
// a registered neighbor strategy, `relax` is the LK relaxed-gain depth
// (0 = classic rule).
func (r *Runner) CLKCandRuns(name, cand string, relax int, kicks int64, runs int, seed int64) ([]Trace, error) {
	in, err := r.Instance(name)
	if err != nil {
		return nil, err
	}
	p := clk.DefaultParams()
	if p.Neighbors, _, err = neighbor.Select(in, cand, p.NeighborK); err != nil {
		return nil, err
	}
	p.LK.RelaxDepth = relax
	return r.clkRuns(fmt.Sprintf("%s/CLK-%s-relax%d", name, cand, relax), name, p, kicks, runs, seed)
}

// clkRuns is the one plain-CLK loop. The trace axis is the kick index; run
// r uses seed+101*r and is labelled label/run<r>. label must name the whole
// configuration, since it also keys the cache. KickOnce is
// single-goroutine and seeded, so each trace is a pure function of
// (instance, params, kicks, seed).
func (r *Runner) clkRuns(label, name string, p clk.Params, kicks int64, runs int, seed int64) ([]Trace, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", label, kicks, runs, seed)
	if out, ok := r.clkCache[key]; ok {
		return out, nil
	}
	in, err := r.Instance(name)
	if err != nil {
		return nil, err
	}
	out := make([]Trace, runs)
	for run := 0; run < runs; run++ {
		s := clk.New(in, p, seed+101*int64(run))
		tr := Trace{Label: fmt.Sprintf("%s/run%d", label, run)}
		tr.X = append(tr.X, 0)
		tr.L = append(tr.L, s.BestLength())
		for k := int64(1); k <= kicks; k++ {
			if s.KickOnce() {
				tr.X = append(tr.X, k)
				tr.L = append(tr.L, s.BestLength())
			}
		}
		tr.Final = s.BestLength()
		out[run] = tr
	}
	r.clkCache[key] = out
	return out, nil
}

// SimRuns performs (and caches) `runs` simnet cluster runs: `nodes` nodes
// on a hypercube, `iters` EA iterations per node, fixed 5ms links, default
// 100ms step cost.
func (r *Runner) SimRuns(name string, nodes int, iters int64, kick clk.KickStrategy, runs int, seed int64) ([]SimRun, error) {
	in, err := r.Instance(name)
	if err != nil {
		return nil, err
	}
	ea := core.DefaultConfig()
	ea.CLK.Kick = kick
	ea.CV = smokeCV
	ea.CR = smokeCR
	ea.KicksPerCall = smokeKicksPerCall
	cfg := simnet.Config{
		Nodes:  nodes,
		Topo:   topology.Hypercube,
		EA:     ea,
		Budget: core.Budget{MaxIterations: iters},
		Link: simnet.Link{
			Latency: simnet.Latency{Kind: simnet.LatencyFixed, Base: 5 * time.Millisecond},
		},
	}
	key := fmt.Sprintf("%s/%v/%d/%d", name, kick, nodes, iters)
	return r.simRuns(key, fmt.Sprintf("%s/DistCLK%d", name, nodes), in, cfg, runs, seed), nil
}

// ScaleInstance materializes (and caches) an n-city uniform instance for
// the scaling experiment's runs past the paper testbed sizes (the
// stand-ins cap at the 120-city smoke floor; delta-activation needs a
// longer improvement runway).
func (r *Runner) ScaleInstance(n int) *tsp.Instance {
	key := fmt.Sprintf("scale/uniform/%d", n)
	if in, ok := r.instances[key]; ok {
		return in
	}
	in := tsp.Generate(tsp.FamilyUniform, n, smokeInstanceSeed)
	in.Name = fmt.Sprintf("uniform%d", n)
	r.instances[key] = in
	return in
}

// ScaleHKBound computes (and caches) the Held-Karp denominator for a
// ScaleInstance.
func (r *Runner) ScaleHKBound(n int) int64 {
	key := fmt.Sprintf("scale/uniform/%d", n)
	if v, ok := r.hk[key]; ok {
		return v
	}
	res := heldkarp.LowerBound(r.ScaleInstance(n), heldkarp.Options{Iterations: smokeHKIters})
	r.hk[key] = res.Bound
	return res.Bound
}

// SimRunsEx performs (and caches) `runs` simnet cluster runs under an
// explicit simnet.Config — topology, exchange protocol, link model, EA
// constants and budget all come from the caller, unlike SimRuns' fixed
// hypercube. key must uniquely describe (instance, cfg) for the cache.
func (r *Runner) SimRunsEx(key string, in *tsp.Instance, cfg simnet.Config, runs int, seed int64) []SimRun {
	return r.simRuns("ex/"+key, fmt.Sprintf("%s/%v%d", in.Name, cfg.Topo, cfg.Nodes), in, cfg, runs, seed)
}

// simRuns is the one simnet loop. Run r overrides cfg.Seed with
// seed+101*r and is labelled label/run<r>. The trace axis is virtual
// microseconds, read off the merged improvement events. Determinism is
// simnet's replay contract (same instance+Config => byte-identical events).
func (r *Runner) simRuns(key, label string, in *tsp.Instance, cfg simnet.Config, runs int, seed int64) []SimRun {
	ck := fmt.Sprintf("%s/%d/%d", key, runs, seed)
	if out, ok := r.simCache[ck]; ok {
		return out
	}
	out := make([]SimRun, runs)
	for run := 0; run < runs; run++ {
		c := cfg
		c.Seed = seed + 101*int64(run)
		res := simnet.Run(context.Background(), in, c)
		tr := Trace{
			Label: fmt.Sprintf("%s/run%d", label, run),
			Final: res.BestLength,
		}
		best := int64(1 << 62)
		for _, e := range res.Events {
			if e.Kind != obs.KindImprove && e.Kind != obs.KindImproveReceived {
				continue
			}
			if e.Value < best {
				best = e.Value
				tr.X = append(tr.X, e.At.Microseconds())
				tr.L = append(tr.L, e.Value)
			}
		}
		tr.X = append(tr.X, res.VirtualElapsed.Microseconds())
		tr.L = append(tr.L, res.BestLength)
		out[run] = SimRun{Trace: tr, Res: res}
	}
	r.simCache[ck] = out
	return out
}

// traces projects SimRuns to their quality traces.
func traces(runs []SimRun) []Trace {
	out := make([]Trace, len(runs))
	for i, s := range runs {
		out[i] = s.Trace
	}
	return out
}
