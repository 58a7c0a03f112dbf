// Package distclk is a distributed Chained Lin-Kernighan TSP solver — a
// from-scratch Go reproduction of Fischer & Merz, "A Distributed Chained
// Lin-Kernighan Algorithm for TSP Problems" (IPDPS/IPPS 2005).
//
// The package exposes the high-level API: load or generate instances, then
// solve them through a Solver — plain Chained Lin-Kernighan (the Concorde
// linkern heuristic rebuilt in Go) by default, or the paper's distributed
// evolutionary algorithm (WithNodes) in which cooperating nodes exchange
// tours over a hypercube overlay, each node running one CLK chain.
// WithWorkers makes a plain solve multi-core: concurrent kickers share the
// candidate tables and cooperate in synchronous rounds with periodic
// elite-tour merging. Every solve is
// context-driven: cancel the context or let its deadline fire and Solve
// promptly returns the best tour found so far. Progress exposes periodic
// snapshots of the running solve. Lower layers (the LK engine, kicking
// strategies, transports, baselines, the observability spine, the
// reproduction pipeline) live under internal/ and are driven by the cmd/
// binaries.
//
// # Options matrix
//
// Options split into three groups; New validates the whole combination at
// once and reports every conflict in a single error.
//
// Mode-independent: WithKick, WithBudget, WithTarget, WithSeed,
// WithProgressInterval, WithCandidates, WithRelaxedGain, WithEventSink.
//
// Plain CLK only (reject WithNodes alongside them): WithMaxKicks,
// WithWorkers, WithMergeEvery. Each distributed node runs one chain, as
// in the paper.
//
// Distributed EA only (require WithNodes): WithTopology, WithEAParameters,
// WithKicksPerCall, and the scaled exchange protocol — WithTourDiff,
// WithGossip, WithBatching.
package distclk

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"distclk/internal/clk"
	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// Instance is a symmetric TSP instance (see Load and Generate).
type Instance = tsp.Instance

// Tour is a permutation of the instance's cities.
type Tour = tsp.Tour

// Load reads a TSPLIB-format .tsp file.
func Load(path string) (*Instance, error) { return tsp.LoadTSPLIB(path) }

// Generate builds a synthetic instance. Families: "uniform", "clustered",
// "drill", "grid", "national" — stand-ins for the paper's testbed families.
func Generate(family string, n int, seed int64) (*Instance, error) {
	f, err := tsp.ParseFamily(family)
	if err != nil {
		return nil, err
	}
	return tsp.Generate(f, n, seed), nil
}

// StandIn generates the synthetic stand-in for a paper testbed instance
// name such as "fl3795" or "sw24978".
func StandIn(paperName string, seed int64) (*Instance, error) {
	return tsp.StandIn(paperName, seed)
}

// NodeStats reports one node's search statistics: the observability
// layer's per-node counters (internal/obs CounterSnapshot, JSON-tagged as
// -metrics serves them). For parallel plain-CLK solves (WithWorkers(n > 1))
// there is one entry per worker rather than per node.
type NodeStats = obs.CounterSnapshot

// Result reports a solve.
type Result struct {
	// Tour is the best tour found.
	Tour Tour
	// Length is its length under the instance metric.
	Length int64
	// Elapsed is the runtime-measured wall-clock duration of the solve
	// (engine construction included), identical in meaning for plain and
	// distributed solves.
	Elapsed time.Duration
	// Nodes is the number of cooperating nodes (1 for plain CLK).
	Nodes int
	// Broadcasts counts tours exchanged (distributed runs only).
	Broadcasts int64
	// PerNode carries each node's search statistics.
	PerNode []NodeStats
}

// Snapshot is one progress observation of a running solve.
type Snapshot struct {
	// Elapsed is wall-clock time since Solve started.
	Elapsed time.Duration
	// CPUPerNode approximates per-node CPU time consumed: nodes time-share
	// min(nodes, GOMAXPROCS) cores, so each receives that fraction of the
	// wall clock — the paper's "CPU time per node" axis.
	CPUPerNode time.Duration
	// BestLength is the best tour length found so far (0 before the first
	// tour exists).
	BestLength int64
	// Kicks is the total double-bridge kicks attempted across nodes.
	Kicks int64
	// Restarts is the total restart-rule firings across nodes.
	Restarts int64
	// Broadcasts is the total tours broadcast across nodes.
	Broadcasts int64
	// Workers is the number of concurrent plain-CLK searchers, 1 for a
	// distributed solve (resolved: WithWorkers(0) shows the GOMAXPROCS
	// value it picked).
	Workers int
	// WorkerKicks is the cumulative kick count per worker (plain CLK) or
	// per node (distributed solves), indexed by worker/node id.
	WorkerKicks []int64
}

// options collects solver configuration; see the With* functions.
type options struct {
	kick       clk.KickStrategy
	budget     time.Duration
	maxKicks   int64
	target     int64
	seed       int64
	topo       topology.Kind
	cv, cr     int
	kpc        int64
	nodes      int // 0 = plain CLK, >= 1 = distributed EA
	workers    int // resolved: always >= 1 after build
	mergeEvery int64
	interval   time.Duration
	candidates string
	relaxDepth int
	sink       obs.Sink
	exchange   dist.ExchangeConfig

	// Which option groups were explicitly set — build's combination check
	// (see the package-level options matrix) needs to tell defaults apart
	// from user choices.
	maxKicksSet bool
	topoSet     bool
	eaSet       bool
	kpcSet      bool
	workersSet  bool
	workersAuto bool
	mergeSet    bool
	relaxSet    bool
	exchangeSet bool
}

// Option configures a Solver.
type Option func(*options) error

func defaults() options {
	return options{
		kick:       clk.KickRandomWalk,
		budget:     10 * time.Second,
		seed:       1,
		topo:       topology.Hypercube,
		cv:         64,
		cr:         256,
		workers:    1,
		interval:   100 * time.Millisecond,
		candidates: "auto",
	}
}

// WithKick selects the double-bridge kicking strategy: "random",
// "geometric", "close", or "random-walk" (default, as in the paper).
func WithKick(name string) Option {
	return func(o *options) error {
		k, err := clk.ParseKick(name)
		if err != nil {
			return err
		}
		o.kick = k
		return nil
	}
}

// WithCandidates selects the candidate-set strategy bounding the LK
// search: "auto" (default — probe the instance and pick, see cmd/tspstat
// to preview the choice), "knn" (the historical default lists), "quadrant",
// "alpha", or "delaunay". Candidate lists are built once per solve and
// shared read-only across workers and nodes. An explicitly named strategy
// that cannot run on the instance (e.g. "delaunay" on a matrix-only
// instance) fails the solve with a descriptive error; "auto" always
// succeeds.
func WithCandidates(name string) Option {
	return func(o *options) error {
		if name != "auto" {
			if _, err := neighbor.ByName(name); err != nil {
				return fmt.Errorf("distclk: %w", err)
			}
		}
		o.candidates = name
		return nil
	}
}

// WithRelaxedGain sets the relaxed-gain depth of the LK search: chain
// depths below it may carry a bounded non-positive partial gain, letting
// chains cross equal-length plateaus (lattice-like instances). 0 forces
// the classic strictly-positive rule. Without this option the depth
// follows the WithCandidates("auto") recommendation (0 for named
// strategies).
func WithRelaxedGain(depth int) Option {
	return func(o *options) error {
		if depth < 0 {
			return fmt.Errorf("distclk: negative relaxed-gain depth %d", depth)
		}
		o.relaxDepth = depth
		o.relaxSet = true
		return nil
	}
}

// WithBudget bounds the solve duration (per node for distributed solves,
// matching the paper's per-node CPU limits). Default 10s. A tighter
// deadline on the Solve context wins.
func WithBudget(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("distclk: non-positive budget %v", d)
		}
		o.budget = d
		return nil
	}
}

// WithMaxKicks bounds plain CLK by kick count instead of (or on top of)
// time. Zero means unlimited. With WithWorkers(n > 1) the bound is the
// group total across workers. Plain CLK only.
func WithMaxKicks(k int64) Option {
	return func(o *options) error {
		o.maxKicksSet = true
		if k < 0 {
			return fmt.Errorf("distclk: negative max kicks %d", k)
		}
		o.maxKicks = k
		return nil
	}
}

// WithWorkers runs n concurrent kickers in a plain-CLK solve. They share the read-only candidate tables and keep
// private zero-allocation search state. They kick in synchronous rounds:
// after each round, workers behind the round's best tour restart from it,
// and elite tours are fused periodically (see WithMergeEvery). n = 0
// auto-sizes to GOMAXPROCS. Negative n is rejected. The default, n = 1, is
// the classic single kicker. A kick-bounded solve (WithMaxKicks) returns
// the same tour for a given seed and worker count, whatever the scheduler
// does. Plain CLK only: each distributed node runs one chain.
func WithWorkers(n int) Option {
	return func(o *options) error {
		o.workersSet = true
		if n < 0 {
			return fmt.Errorf("distclk: negative worker count %d", n)
		}
		if n == 0 {
			o.workersAuto = true
			o.workers = runtime.GOMAXPROCS(0)
			return nil
		}
		o.workers = n
		return nil
	}
}

// WithMergeEvery sets the elite-merge cadence for parallel plain-CLK
// solves: at the first round boundary after every k group-total kicks, a
// merge pass fuses the best pooled tours with Lin-Kernighan restricted to
// the union of their edges (Cook &
// Seymour tour merging). Zero (the default) picks a cadence proportional
// to instance size; negative k is rejected. Requires WithWorkers(n > 1) —
// merging needs tours from at least two searchers — and plain CLK mode
// (distributed nodes already exchange tours by broadcast).
func WithMergeEvery(k int64) Option {
	return func(o *options) error {
		o.mergeSet = true
		if k < 0 {
			return fmt.Errorf("distclk: negative merge cadence %d", k)
		}
		o.mergeEvery = k
		return nil
	}
}

// WithTarget stops the solve as soon as a tour of at most this length is
// found — the paper's known-optimum termination criterion. Zero means no
// target.
func WithTarget(length int64) Option {
	return func(o *options) error {
		if length < 0 {
			return fmt.Errorf("distclk: negative target length %d", length)
		}
		o.target = length
		return nil
	}
}

// WithSeed fixes the random seed (default 1).
func WithSeed(seed int64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithNodes selects the paper's distributed evolutionary algorithm with
// the given number of cooperating in-process nodes (the paper uses 8; 1
// runs the EA without neighbours, the paper's cooperation baseline).
// Without this option the Solver runs plain Chained Lin-Kernighan.
func WithNodes(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("distclk: need at least one node, got %d", n)
		}
		o.nodes = n
		return nil
	}
}

// WithTopology selects the overlay for distributed solves: "hypercube"
// (default, the paper's), "ring", "grid", "complete", or the hierarchical
// overlays built for clusters far past the paper's 8 nodes —
// "hier-hypercube" and "tree-of-rings", whose per-node degree stays flat
// as the cluster grows. Requires WithNodes.
func WithTopology(name string) Option {
	return func(o *options) error {
		o.topoSet = true
		k, err := topology.Parse(name)
		if err != nil {
			return err
		}
		o.topo = k
		return nil
	}
}

// WithEAParameters overrides the paper's c_v (perturbation strength
// divisor, default 64) and c_r (restart threshold, default 256). The
// defaults assume runs long enough for hundreds of EA iterations per node;
// for second-scale budgets, scale them down proportionally (e.g. 4 and 16)
// so the variable-strength mechanism engages within the compressed time
// scale.
func WithEAParameters(cv, cr int) Option {
	return func(o *options) error {
		o.eaSet = true
		if cv <= 0 || cr <= 0 {
			return fmt.Errorf("distclk: EA parameters must be positive")
		}
		o.cv, o.cr = cv, cr
		return nil
	}
}

// WithKicksPerCall bounds the embedded CLK run per EA iteration of a
// distributed solve (default max(20, n/10)). Smaller values yield more
// frequent exchange and perturbation decisions.
func WithKicksPerCall(k int64) Option {
	return func(o *options) error {
		o.kpcSet = true
		if k <= 0 {
			return fmt.Errorf("distclk: kicks per call must be positive")
		}
		o.kpc = k
		return nil
	}
}

// WithTourDiff switches tour exchange to the delta wire protocol: each
// (sender, peer) stream transmits only the changed segments of the tour
// against the peer's last-known generation, with a full tour every
// keyframe deltas (0 picks the default, 64) and automatic full-tour
// fallback on generation gaps, size-ineffective diffs, or peer restarts.
// Cuts bytes-on-wire roughly in proportion to how local successive
// improvements are; at 1024 nodes it is what keeps exchange traffic
// affordable. Requires WithNodes.
func WithTourDiff(keyframe int) Option {
	return func(o *options) error {
		if keyframe < 0 {
			return fmt.Errorf("distclk: negative tour-diff keyframe interval %d", keyframe)
		}
		o.exchangeSet = true
		o.exchange.Delta = true
		o.exchange.KeyframeEvery = keyframe
		return nil
	}
}

// WithGossip replaces topology-neighbour broadcast with gossip: every
// broadcast goes to fanout peers sampled uniformly from the whole
// cluster, spreading tours in O(log n) rounds regardless of overlay
// diameter. Requires WithNodes.
func WithGossip(fanout int) Option {
	return func(o *options) error {
		if fanout <= 0 {
			return fmt.Errorf("distclk: gossip fanout must be positive, got %d", fanout)
		}
		o.exchangeSet = true
		o.exchange.Gossip = true
		o.exchange.Fanout = fanout
		return nil
	}
}

// WithBatching coalesces queued tours per sender: if a peer's inbox
// already holds an undrained tour from the same sender, the better of the
// two replaces it instead of queueing both. At large node counts this
// bounds inbox growth during slow EA iterations without dropping
// information (the discarded tour was dominated). Requires WithNodes.
func WithBatching() Option {
	return func(o *options) error {
		o.exchangeSet = true
		o.exchange.Coalesce = true
		return nil
	}
}

// WithProgressInterval sets the sampling period of the Progress channel
// (default 100ms).
func WithProgressInterval(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("distclk: non-positive progress interval %v", d)
		}
		o.interval = d
		return nil
	}
}

// Event, EventKind and EventSink re-export the observability vocabulary
// (internal/obs) under importable names: external modules cannot import
// internal packages, but can name aliases, consume WithEventSink streams,
// and implement their own one-method EventSink.
type (
	Event     = obs.Event
	EventKind = obs.Kind
	EventSink = obs.Sink
)

// WithEventSink streams the solve's raw observability events into sink as
// they happen — every decision point, including the high-frequency
// kick-level kinds (kick accepted/reverted fire once per kick).
// Long-lived consumers such as the solve service's SSE fan-out wrap the
// sink in obs.Filter, or use an obs.Broadcaster whose bounded per-
// subscriber buffers drop instead of blocking; a sink that blocks stalls
// the solve. The sink must be safe for concurrent Emit calls.
func WithEventSink(sink EventSink) Option {
	return func(o *options) error {
		if sink == nil {
			return fmt.Errorf("distclk: nil event sink (drop the option instead)")
		}
		o.sink = sink
		return nil
	}
}

// build applies the options and validates the whole configuration in one
// place; every invalid option and every conflicting combination is
// reported, joined into a single error.
func build(opts []Option) (options, error) {
	o := defaults()
	var errs []error
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			errs = append(errs, err)
		}
	}
	errs = append(errs, o.combos()...)
	if len(errs) > 0 {
		return o, errors.Join(errs...)
	}
	return o, nil
}

// combos checks the cross-option matrix documented in the package comment.
func (o *options) combos() []error {
	var errs []error
	if o.nodes > 0 {
		if o.maxKicksSet {
			errs = append(errs, fmt.Errorf("distclk: WithMaxKicks bounds plain CLK solves only; drop it or drop WithNodes"))
		}
		if o.mergeSet {
			errs = append(errs, fmt.Errorf("distclk: WithMergeEvery applies to parallel plain-CLK solves only; distributed nodes already exchange tours by broadcast"))
		}
		if o.workersSet {
			errs = append(errs, fmt.Errorf("distclk: WithWorkers applies to plain-CLK solves only; each distributed node runs one chain"))
		}
	} else {
		if o.topoSet {
			errs = append(errs, fmt.Errorf("distclk: WithTopology requires WithNodes (plain CLK has no overlay)"))
		}
		if o.eaSet {
			errs = append(errs, fmt.Errorf("distclk: WithEAParameters requires WithNodes (plain CLK runs no evolutionary loop)"))
		}
		if o.kpcSet {
			errs = append(errs, fmt.Errorf("distclk: WithKicksPerCall requires WithNodes (plain CLK kicks continuously; bound it with WithMaxKicks)"))
		}
		if o.exchangeSet {
			errs = append(errs, fmt.Errorf("distclk: WithTourDiff/WithGossip/WithBatching configure the exchange protocol and require WithNodes (plain CLK exchanges no tours)"))
		}
	}
	// workersAuto is exempt: on a single-core machine it resolves to one
	// worker and merging just never fires.
	if o.mergeSet && !o.workersAuto && o.workers == 1 {
		errs = append(errs, fmt.Errorf("distclk: WithMergeEvery requires WithWorkers(n > 1): tour merging fuses tours from at least two workers"))
	}
	return errs
}

// Solver is a configured, single-use solve: build it with New, optionally
// subscribe to Progress, then call Solve. A Solver must not be shared
// across goroutines (the Progress channel may be consumed elsewhere).
type Solver struct {
	in       *Instance
	o        options
	observer *obs.Observer
	progress chan Snapshot
	solved   bool
}

// New validates the options and builds a Solver over the instance.
func New(in *Instance, opts ...Option) (*Solver, error) {
	if in == nil {
		return nil, fmt.Errorf("distclk: nil instance")
	}
	o, err := build(opts)
	if err != nil {
		return nil, err
	}
	// One recorder per node, or — for parallel plain CLK — per worker.
	recs := o.nodes
	if recs == 0 {
		recs = o.workers
	}
	return &Solver{in: in, o: o, observer: obs.NewObserver(recs, o.sink)}, nil
}

// Progress returns a channel of periodic solve snapshots. Call Progress
// before Solve starts — e.g. on the goroutine that will call Solve, not
// inside the consuming goroutine, or the subscription may race with the
// solve and miss it. Sampling is latest-wins: a slow consumer sees fresh
// snapshots, never a backlog. The channel closes when Solve returns.
func (s *Solver) Progress() <-chan Snapshot {
	if s.progress == nil {
		s.progress = make(chan Snapshot, 1)
	}
	return s.progress
}

// snapshot samples the observer.
func (s *Solver) snapshot() Snapshot {
	counters := s.observer.Counters()
	var kicks, restarts, broadcasts int64
	workerKicks := make([]int64, len(counters))
	for i, c := range counters {
		kicks += c.Kicks
		restarts += c.Restarts
		broadcasts += c.Broadcasts
		workerKicks[i] = c.Kicks
	}
	elapsed := s.observer.Elapsed()
	nodes := s.observer.Nodes()
	procs := runtime.GOMAXPROCS(0)
	if procs > nodes {
		procs = nodes
	}
	return Snapshot{
		Elapsed:     elapsed,
		CPUPerNode:  time.Duration(float64(elapsed) * float64(procs) / float64(nodes)),
		BestLength:  s.observer.BestLength(),
		Kicks:       kicks,
		Restarts:    restarts,
		Broadcasts:  broadcasts,
		Workers:     s.o.workers,
		WorkerKicks: workerKicks,
	}
}

// pump samples progress every interval until done, closing the channel on
// exit. Each tick also records a snapshot event into the observer, so
// event traces carry the progress timeline.
func (s *Solver) pump(done <-chan struct{}) {
	ticker := time.NewTicker(s.o.interval)
	defer ticker.Stop()
	defer close(s.progress)
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			s.observer.Snapshot()
			snap := s.snapshot()
			select {
			case s.progress <- snap:
			default:
				// Latest wins: evict the stale snapshot, then retry once.
				select {
				case <-s.progress:
				default:
				}
				select {
				case s.progress <- snap:
				default:
				}
			}
		}
	}
}

// Solve runs the solve until the budget, target, kick bound, or ctx ends
// it — whichever comes first — and returns the best tour found.
// Cancellation is not an error: the best-so-far result comes back with a
// nil error. Solve may be called once per Solver.
func (s *Solver) Solve(ctx context.Context) (Result, error) {
	if s.solved {
		return Result{}, fmt.Errorf("distclk: Solve already called on this Solver")
	}
	s.solved = true
	ctx, cancel := context.WithTimeout(ctx, s.o.budget)
	defer cancel()

	done := make(chan struct{})
	if s.progress != nil {
		go s.pump(done)
	}
	defer close(done)

	// Resolve the candidate strategy eagerly: lists are built once here,
	// shared read-only by every worker and node, and an impossible
	// explicit choice (e.g. delaunay on a matrix-only instance) surfaces
	// as a Solve error instead of a silent engine fallback.
	nbr, relax, err := s.resolveCandidates()
	if err != nil {
		return Result{}, err
	}

	start := time.Now()
	var res Result
	if s.o.nodes == 0 {
		res = s.solveCLK(ctx, nbr, relax)
	} else {
		res = s.solveCluster(ctx, nbr, relax)
	}
	res.Elapsed = time.Since(start)
	res.PerNode = s.observer.Counters()
	for _, c := range res.PerNode {
		res.Broadcasts += c.Broadcasts
	}
	return res, nil
}

// resolveCandidates builds the candidate lists and the relaxed-gain depth
// for this solve. An explicit WithRelaxedGain wins over the auto
// recommendation; named strategies recommend the classic rule.
func (s *Solver) resolveCandidates() (*neighbor.Lists, int, error) {
	nbr, choice, err := neighbor.Select(s.in, s.o.candidates, clk.DefaultParams().NeighborK)
	if err != nil {
		return nil, 0, fmt.Errorf("distclk: %w", err)
	}
	relax := choice.RelaxDepth
	if s.o.relaxSet {
		relax = s.o.relaxDepth
	}
	return nbr, relax, nil
}

func (s *Solver) solveCLK(ctx context.Context, nbr *neighbor.Lists, relax int) Result {
	p := clk.DefaultParams()
	p.Kick = s.o.kick
	p.Neighbors = nbr
	p.LK.RelaxDepth = relax
	b := clk.Budget{
		MaxKicks: s.o.maxKicks,
		Target:   s.o.target,
	}
	// One worker runs its rounds inline, byte-identical to a plain
	// Solver.Run under the same seed.
	g := clk.NewGroup(ctx, s.in, p, clk.GroupParams{
		Workers:    s.o.workers,
		MergeEvery: s.o.mergeEvery,
	}, s.o.seed)
	for i := 0; i < g.Workers(); i++ {
		g.SetRecorder(i, s.observer.Recorder(i))
	}
	res := g.Run(ctx, b)
	return Result{
		Tour:   res.Tour,
		Length: res.Length,
		Nodes:  1,
	}
}

func (s *Solver) solveCluster(ctx context.Context, nbr *neighbor.Lists, relax int) Result {
	ea := core.DefaultConfig()
	ea.CV, ea.CR = s.o.cv, s.o.cr
	ea.CLK.Kick = s.o.kick
	ea.CLK.Neighbors = nbr
	ea.CLK.LK.RelaxDepth = relax
	ea.KicksPerCall = s.o.kpc
	res := dist.RunCluster(ctx, s.in, dist.ClusterConfig{
		Nodes:    s.o.nodes,
		Topo:     s.o.topo,
		EA:       ea,
		Budget:   core.Budget{Target: s.o.target},
		Seed:     s.o.seed,
		Exchange: s.o.exchange,
		Obs:      s.observer,
	})
	return Result{
		Tour:   res.BestTour,
		Length: res.BestLength,
		Nodes:  s.o.nodes,
	}
}
