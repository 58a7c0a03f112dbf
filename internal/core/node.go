package core

import (
	"context"

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
	// KicksPerCall bounds the embedded CLK run in each EA iteration (<= 0
	// selects clk.KicksPerRound: max(20, n/10), scaling work with instance
	// size).
	KicksPerCall int64
	// CLK configures the underlying Chained Lin-Kernighan solver.
	CLK clk.Params
	// DisablePerturbation turns PERTURBATE into the identity, for the
	// paper's "running without DBMs" ablation (§4.2).
	DisablePerturbation bool
}

// DefaultConfig returns the paper's parameter setting.
func DefaultConfig() Config {
	return Config{
		CV:  64,
		CR:  256,
		CLK: clk.DefaultParams(),
	}
}

// restartConstruct is the construction heuristic for restarts: nearest
// neighbour from a random city, for diversity — Quick-Borůvka is
// deterministic and would always restart identically.
const restartConstruct = construct.NearestNeighbor

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

// Node is one EA participant: a CLK solver plus the Figure 1 control loop.
type Node struct {
	ID     int
	cfg    Config
	inst   *tsp.Instance
	solver *clk.Solver // the node's one perturbed chain
	comm   Comm
	rec    *obs.Recorder // never nil: the node's one record of its counts

	sBest    tsp.Tour
	sBestLen int64

	noImprove    int
	perturbLevel int

	budget   Budget
	sPrevLen int64
	began    bool
}

// NewNode builds a node over a fresh CLK solver seeded with seed. seed
// must differ across nodes so their searches diverge.
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
	n := &Node{
		ID:     id,
		cfg:    cfg,
		inst:   inst,
		solver: clk.New(inst, cfg.CLK, seed),
		comm:   comm,
	}
	n.SetRecorder(nil)
	return n
}

// SetRecorder attaches the node's observability recorder and threads it
// into the node's solver. The recorder keeps the node's counts; nil
// attaches a plain one that counts without emitting, as NewNode does.
// Call before Run.
func (n *Node) SetRecorder(rec *obs.Recorder) {
	if rec == nil {
		rec = obs.NewRecorder(n.ID, nil)
	}
	n.rec = rec
	n.solver.Rec = rec
}

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
// and returns the node's counters. It must be called at most once per
// Node. Callers that need one-iteration granularity (the simnet
// discrete-event driver) use Begin/Step/Finish directly instead.
func (n *Node) Run(ctx context.Context, b Budget) obs.CounterSnapshot {
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

	// s_prev := INITIALTOUR; s_best := CHAINEDLINKERNIGHAN(s_prev).
	// NewNode already constructed + LK-optimized the initial tour; the
	// initial chained run completes the first line of the pseudocode.
	n.runCLK(ctx, b)
	n.sBest, n.sBestLen = n.solver.Best()
	n.rec.Record(obs.KindImprove, n.sBestLen, -1)
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
	iter := n.rec.Snapshot().Iterations
	if b.done(ctx, iter, n.sBestLen, n.comm) {
		return false
	}
	n.rec.Record(obs.KindIteration, iter+1, -1)

	// s := CHAINEDLINKERNIGHAN(PERTURBATE(s_best))
	n.perturbate()
	res := n.runCLK(ctx, b)
	s, sLen := res.Tour, res.Length

	// S_received := ALLRECEIVEDTOURS
	received := n.comm.Drain()
	for _, in := range received {
		n.rec.Record(obs.KindBroadcastReceived, in.Length, in.From)
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
			n.rec.Record(obs.KindImprove, bestLen, -1)
			n.broadcast(bestTour, bestLen)
		} else {
			n.rec.Record(obs.KindImproveReceived, bestLen, bestFrom)
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
// node's counters. Call once, after the last Step. On a node whose Begin
// never ran (aborted before its first event) it only reads the counters.
func (n *Node) Finish() obs.CounterSnapshot {
	if n.began && n.budget.Target > 0 && n.sBestLen <= n.budget.Target {
		n.rec.Record(obs.KindOptimum, n.sBestLen, -1)
		n.comm.AnnounceOptimum(n.sBestLen)
	}
	return n.rec.Snapshot()
}

// CrashRecover simulates a process restart with lost volatile state: the
// incumbent is discarded and the search resumes from a freshly constructed,
// LK-optimized tour, as a rejoining machine would. Stagnation counters
// reset and the event is recorded like a stagnation restart. Call between
// Steps only (the simnet churn scheduler does).
func (n *Node) CrashRecover() {
	n.noImprove = 0
	n.setPerturbLevel(1)
	n.rec.Record(obs.KindRestart, 0, -1)
	n.solver.Reconstruct(restartConstruct)
	n.sBest, n.sBestLen = n.solver.Best()
	n.sPrevLen = n.sBestLen
}

// honest recomputes a received tour before it may win SELECTBESTTOUR: a
// peer's claimed length is not trusted. A tour that is not a permutation,
// or whose length differs from the claim, is dropped and recorded. This
// is O(n), paid only by tours that would otherwise win.
func (n *Node) honest(in Incoming) bool {
	if in.Tour.Validate(n.inst.N()) == nil && in.Tour.Length(n.inst) == in.Length {
		return true
	}
	n.rec.Record(obs.KindLengthMismatch, in.Length, in.From)
	return false
}

func (n *Node) broadcast(t tsp.Tour, length int64) {
	n.comm.Broadcast(t, length)
	n.rec.Record(obs.KindBroadcastSent, length, -1)
}

// perturbate implements PERTURBATE(s): either restart from a fresh tour
// (NumNoImprovements > c_r) or apply NumPerturbations double-bridge moves.
func (n *Node) perturbate() {
	if n.noImprove > n.cfg.CR {
		n.noImprove = 0
		n.setPerturbLevel(1)
		n.rec.Record(obs.KindRestart, 0, -1)
		n.solver.Reconstruct(restartConstruct)
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
		n.rec.Record(obs.KindPerturbLevel, int64(level), -1)
	}
}

// runCLK runs the perturbed chain under the per-iteration kick budget,
// clipped by the global context/target.
func (n *Node) runCLK(ctx context.Context, b Budget) clk.Result {
	return n.solver.RunPerturbed(ctx, clk.Budget{
		MaxKicks: n.cfg.KicksPerCall,
		Target:   b.Target,
	})
}
