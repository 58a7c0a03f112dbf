package core

import (
	"context"
	"time"

	"distclk/internal/clk"
	"distclk/internal/construct"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// Config carries the EA parameters. The paper's experiments use CV=64 and
// CR=256 with unlimited CLK calls under a per-node time bound.
type Config struct {
	// CV divides the no-improvement counter to yield the perturbation
	// strength: NumPerturbations = NumNoImprovements/CV + 1.
	CV int
	// CR is the restart threshold: when NumNoImprovements exceeds it, the
	// incumbent is discarded and a fresh initial tour is constructed.
	CR int
	// KicksPerCall bounds the embedded CLK run in each EA iteration, per
	// worker (<= 0 selects clk.KicksPerRound: max(20, n/10), scaling work
	// with instance size).
	KicksPerCall int64
	// CLK configures the underlying Chained Lin-Kernighan solver.
	CLK clk.Params
	// RestartConstruct picks the construction heuristic for restarts
	// (default NearestNeighbor from a random city, for diversity —
	// Quick-Borůvka is deterministic and would always restart identically).
	RestartConstruct construct.Method
	// DisablePerturbation turns PERTURBATE into the identity, for the
	// paper's "running without DBMs" ablation (§4.2).
	DisablePerturbation bool
	// Workers is the number of in-node CLK searchers backing each EA
	// iteration (<= 1 = the classic single kicker). Each iteration is one
	// clk.Group round: worker 0 runs the perturbed chain, the others chain
	// from their own incumbents (re-rooted at the node best when strictly
	// behind it), and the shortest result wins, ties to the lowest worker
	// index. The round does not depend on completion order, so simnet
	// replays byte-identically at any worker count. Each worker charges
	// virtual CPU in stepping drivers (see Node.CostFactor), so simnet
	// budgets stay comparable.
	Workers int
}

// DefaultConfig returns the paper's parameter setting.
func DefaultConfig() Config {
	return Config{
		CV:               64,
		CR:               256,
		CLK:              clk.DefaultParams(),
		RestartConstruct: construct.NearestNeighbor,
	}
}

// Incoming is a tour received from a neighbouring node.
type Incoming struct {
	From   int
	Tour   tsp.Tour
	Length int64
}

// Comm abstracts the node's view of the network. Implementations must be
// safe for use by the node goroutine while the network delivers concurrently.
type Comm interface {
	// Broadcast sends the node's new best tour to all neighbours.
	Broadcast(t tsp.Tour, length int64)
	// Drain returns all tours received since the previous call.
	Drain() []Incoming
	// AnnounceOptimum notifies the network that the target was reached.
	AnnounceOptimum(length int64)
	// Stopped reports whether a remote optimum/shutdown notice arrived.
	Stopped() bool
}

// NopComm is the single-node Comm: no neighbours, nothing received. It is
// the paper's 1-node configuration used to isolate cooperation effects.
type NopComm struct{}

// Broadcast discards the tour.
func (NopComm) Broadcast(tsp.Tour, int64) {}

// Drain returns nothing.
func (NopComm) Drain() []Incoming { return nil }

// AnnounceOptimum does nothing.
func (NopComm) AnnounceOptimum(int64) {}

// Stopped reports false.
func (NopComm) Stopped() bool { return false }

// Stats summarizes a node's run.
type Stats struct {
	NodeID     int
	BestLength int64
	Iterations int64
	Kicks      int64 // double-bridge kicks attempted by the embedded CLK
	Broadcasts int64 // tours broadcast to neighbours
	Received   int64 // tours drained from the inbox
	Accepted   int64 // received tours adopted as node best
	Restarts   int64
	Elapsed    time.Duration
}

// Node is one EA participant: a CLK solver plus the Figure 1 control loop.
type Node struct {
	ID     int
	cfg    Config
	inst   *tsp.Instance
	group  *clk.Group  // the in-node workers
	solver *clk.Solver // worker 0: the node's perturbed chain
	comm   Comm
	rec    *obs.Recorder

	sBest    tsp.Tour
	sBestLen int64

	noImprove    int
	perturbLevel int

	budget   Budget
	sPrevLen int64
	began    bool

	stats Stats
	start time.Time
}

// NewNode builds a node over a fresh CLK group of max(1, cfg.Workers)
// workers; worker 0 gets seed itself. seed must differ across nodes so
// their searches diverge.
func NewNode(id int, inst *tsp.Instance, cfg Config, comm Comm, seed int64) *Node {
	if cfg.CV <= 0 {
		cfg.CV = 64
	}
	if cfg.CR <= 0 {
		cfg.CR = 256
	}
	if cfg.KicksPerCall <= 0 {
		cfg.KicksPerCall = clk.KicksPerRound(inst.N())
	}
	g := clk.BuildGroup(inst, cfg.CLK, clk.GroupParams{
		Workers:    max(1, cfg.Workers),
		MergeEvery: -1,
	}, seed)
	n := &Node{
		ID:     id,
		cfg:    cfg,
		inst:   inst,
		group:  g,
		solver: g.Worker(0),
		comm:   comm,
	}
	n.stats.NodeID = id
	return n
}

// CostFactor is the virtual CPU multiplier a stepping driver charges per
// EA iteration: one per in-node worker. simnet multiplies StepCost by it
// so a 4-worker node consumes virtual time 4x faster — budgets measured
// in virtual seconds stay comparable across worker counts.
func (n *Node) CostFactor() int { return n.group.Workers() }

// SetRecorder attaches the node's observability recorder (nil is fine) and
// threads it into every in-node worker. Call before Run.
func (n *Node) SetRecorder(rec *obs.Recorder) {
	n.rec = rec
	// Workers share the node's recorder: counters and the best length are
	// atomic and sinks serialize, so concurrent kick events are safe.
	for i := 0; i < n.group.Workers(); i++ {
		n.group.Worker(i).Rec = rec
	}
}

// Recorder returns the attached recorder (possibly nil).
func (n *Node) Recorder() *obs.Recorder { return n.rec }

// Solver exposes the underlying CLK engine (read-mostly; used by tests and
// the harness).
func (n *Node) Solver() *clk.Solver { return n.solver }

// Best returns the node's best tour and length.
func (n *Node) Best() (tsp.Tour, int64) {
	if n.sBest == nil {
		return n.solver.Best()
	}
	return n.sBest.Clone(), n.sBestLen
}

// Budget bounds a node's Run. Time limits and external shutdown arrive
// through the Run context.
type Budget struct {
	// Target stops the loop once the best tour is <= Target and triggers
	// AnnounceOptimum (the paper's known-optimum termination criterion).
	Target int64
	// MaxIterations bounds EA iterations (0 = unlimited).
	MaxIterations int64
}

func (b Budget) done(ctx context.Context, iter int64, best int64, comm Comm) bool {
	if ctx.Err() != nil {
		return true
	}
	if b.Target > 0 && best <= b.Target {
		return true
	}
	if b.MaxIterations > 0 && iter >= b.MaxIterations {
		return true
	}
	return comm.Stopped()
}

// Run executes the Figure 1 loop until the budget expires or ctx is done,
// and returns the node's statistics. It must be called at most once per
// Node. Callers that need one-iteration granularity (the simnet
// discrete-event driver) use Begin/Step/Finish directly instead.
func (n *Node) Run(ctx context.Context, b Budget) Stats {
	n.Begin(ctx, b)
	for n.Step(ctx) {
	}
	return n.Finish()
}

// Begin runs the first line of the Figure 1 pseudocode — the initial
// chained LK pass and broadcast — and arms the budget for Step. It must be
// called exactly once, before any Step.
func (n *Node) Begin(ctx context.Context, b Budget) {
	if n.began {
		//lint:ignore nopanic API-misuse invariant: a second Begin would silently corrupt budget accounting, and no error path exists
		panic("core: Node.Begin called twice")
	}
	n.began = true
	n.budget = b
	//lint:ignore nodeterminism Stats.Elapsed is reporting-only; simnet replays run on the virtual clock and never read it
	n.start = time.Now()

	// s_prev := INITIALTOUR; s_best := CHAINEDLINKERNIGHAN(s_prev).
	// NewNode already constructed + LK-optimized the initial tour; the
	// initial chained run completes the first line of the pseudocode.
	n.runCLK(ctx, b)
	n.sBest, n.sBestLen = n.solver.Best()
	n.rec.Improve(n.sBestLen)
	n.broadcast(n.sBest, n.sBestLen)
	n.perturbLevel = 1
	n.sPrevLen = n.sBestLen
}

// Step executes one EA iteration: perturb, chained LK, drain the inbox,
// SELECTBESTTOUR, broadcast on improvement. It reports false — without
// running an iteration — once the budget expired, the target was reached,
// ctx was cancelled, or the network announced shutdown.
func (n *Node) Step(ctx context.Context) bool {
	b := n.budget
	if b.done(ctx, n.stats.Iterations, n.sBestLen, n.comm) {
		return false
	}
	n.stats.Iterations++

	// s := CHAINEDLINKERNIGHAN(PERTURBATE(s_best))
	n.perturbate()
	res := n.runCLK(ctx, b)
	s, sLen := res.Tour, res.Length

	// S_received := ALLRECEIVEDTOURS
	received := n.comm.Drain()
	n.stats.Received += int64(len(received))
	for _, in := range received {
		n.rec.BroadcastReceived(in.Length, in.From)
	}

	// s_best := SELECTBESTTOUR(S_received ∪ {s} ∪ {s_prev})
	bestLen := sLen
	bestTour := s
	fromLocal := true
	bestFrom := -1
	for _, in := range received {
		if in.Length < bestLen && n.honest(in) {
			bestLen = in.Length
			bestTour = in.Tour
			fromLocal = false
			bestFrom = in.From
		}
	}
	if n.sBestLen < bestLen {
		bestLen = n.sBestLen
		bestTour = n.sBest
		fromLocal = false
		bestFrom = -1
	} else if n.sBestLen == bestLen && !fromLocal {
		// Tie with the previous best: keep it, no broadcast.
		bestTour = n.sBest
		bestFrom = -1
	}

	if bestLen == n.sPrevLen {
		n.noImprove++
	} else if bestLen < n.sPrevLen {
		// Counter resets when a better tour is found or received.
		n.noImprove = 0
		n.setPerturbLevel(1)
		if fromLocal {
			n.rec.Improve(bestLen)
			n.broadcast(bestTour, bestLen)
		} else {
			if bestFrom >= 0 {
				n.stats.Accepted++
			}
			n.rec.ImproveReceived(bestLen, bestFrom)
		}
	} else {
		// Perturbation made things worse and nothing received beats
		// s_prev: keep the previous best as incumbent.
		bestLen = n.sPrevLen
		bestTour = n.sBest
		n.noImprove++
	}

	n.sBest = bestTour.Clone()
	n.sBestLen = bestLen
	n.sPrevLen = bestLen
	return true
}

// Finish announces the optimum when the target was reached and returns the
// node's final statistics. Call once, after the last Step. On a node whose
// Begin never ran (aborted before its first event) it is a no-op.
func (n *Node) Finish() Stats {
	if !n.began {
		return n.stats
	}
	if n.budget.Target > 0 && n.sBestLen <= n.budget.Target {
		n.rec.Optimum(n.sBestLen)
		n.comm.AnnounceOptimum(n.sBestLen)
	}
	n.stats.BestLength = n.sBestLen
	n.stats.Kicks = n.group.Kicks()
	//lint:ignore nodeterminism Stats.Elapsed is reporting-only; simnet replays run on the virtual clock and never read it
	n.stats.Elapsed = time.Since(n.start)
	return n.stats
}

// CrashRecover simulates a process restart with lost volatile state: the
// incumbent is discarded and the search resumes from a freshly constructed,
// LK-optimized tour, as a rejoining machine would. Stagnation counters
// reset and the event is recorded like a stagnation restart. Call between
// Steps only (the simnet churn scheduler does).
func (n *Node) CrashRecover() {
	n.noImprove = 0
	n.setPerturbLevel(1)
	n.stats.Restarts++
	n.rec.Restart()
	n.solver.Reconstruct(n.cfg.RestartConstruct)
	n.sBest, n.sBestLen = n.solver.Best()
	n.sPrevLen = n.sBestLen
	// The crash lost every worker's volatile state: the others restart
	// from the reconstructed tour too.
	for i := 1; i < n.group.Workers(); i++ {
		n.group.Worker(i).SetTour(n.sBest)
	}
}

// honest recomputes a received tour before it may win SELECTBESTTOUR: a
// peer's claimed length is not trusted. A tour that is not a permutation,
// or whose length differs from the claim, is dropped and recorded. This
// is O(n), paid only by tours that would otherwise win.
func (n *Node) honest(in Incoming) bool {
	if in.Tour.Validate(n.inst.N()) == nil && in.Tour.Length(n.inst) == in.Length {
		return true
	}
	n.rec.LengthMismatch(in.Length, in.From)
	return false
}

func (n *Node) broadcast(t tsp.Tour, length int64) {
	n.comm.Broadcast(t, length)
	n.stats.Broadcasts++
	n.rec.BroadcastSent(length)
}

// perturbate implements PERTURBATE(s): either restart from a fresh tour
// (NumNoImprovements > c_r) or apply NumPerturbations double-bridge moves.
func (n *Node) perturbate() {
	if n.noImprove > n.cfg.CR {
		n.noImprove = 0
		n.setPerturbLevel(1)
		n.stats.Restarts++
		n.rec.Restart()
		n.solver.Reconstruct(n.cfg.RestartConstruct)
		return
	}
	n.solver.SetTour(n.sBest)
	if n.cfg.DisablePerturbation {
		return
	}
	level := n.noImprove/n.cfg.CV + 1
	n.setPerturbLevel(level)
	n.solver.Perturb(level)
}

func (n *Node) setPerturbLevel(level int) {
	if level != n.perturbLevel {
		n.perturbLevel = level
		n.rec.PerturbLevel(level)
	}
}

// runCLK runs one group round under the per-iteration kick budget, clipped
// by the global context/target. Worker 0 carries the perturbed chain; the
// other workers first re-root at the node best when strictly behind it.
func (n *Node) runCLK(ctx context.Context, b Budget) clk.Result {
	for i := 1; i < n.group.Workers(); i++ {
		if w := n.group.Worker(i); n.sBest != nil && w.BestLength() > n.sBestLen {
			w.SetTour(n.sBest)
		}
	}
	return n.group.RunPerturbed(ctx, clk.Budget{
		MaxKicks: n.cfg.KicksPerCall,
		Target:   b.Target,
	})
}
