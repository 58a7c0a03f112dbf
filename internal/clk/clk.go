package clk

import (
	"context"
	"math/rand"
	"time"

	"distclk/internal/construct"
	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// Params configures a Chained Lin-Kernighan solver.
type Params struct {
	// Kick selects the double-bridge city selection strategy. The paper's
	// (and linkern's) default is Random-walk.
	Kick KickStrategy
	// LK tunes the embedded Lin-Kernighan search.
	LK lk.Params
	// NeighborK is the candidate list size (ignored when Neighbors set).
	NeighborK int
	// Neighbors overrides the candidate lists; nil builds k-nearest
	// lists. Other strategies are resolved by the caller through
	// neighbor.Select, which reports a builder's error.
	Neighbors *neighbor.Lists
	// Construct picks the initial tour heuristic (default Quick-Borůvka).
	Construct construct.Method
}

// DefaultParams mirrors linkern's defaults where the paper relies on them.
func DefaultParams() Params {
	return Params{
		Kick:      KickRandomWalk,
		LK:        lk.DefaultParams(),
		NeighborK: 10,
		Construct: construct.QuickBoruvka,
	}
}

// Budget bounds a Run. Zero values disable the respective bound. Time
// limits and external shutdown arrive through the Run context (deadline or
// cancellation), not through Budget.
type Budget struct {
	// MaxKicks stops after this many kicks.
	MaxKicks int64
	// Target stops as soon as the incumbent is <= Target (e.g. a known
	// optimum, the paper's extra termination criterion).
	Target int64
}

func (b Budget) expired(ctx context.Context, kicks int64, best int64) bool {
	if b.MaxKicks > 0 && kicks >= b.MaxKicks {
		return true
	}
	if b.Target > 0 && best <= b.Target {
		return true
	}
	if ctx.Err() != nil {
		return true
	}
	return false
}

// cancelPoll adapts a context to the lk.Optimizer abort hook, making a
// cancellation cut short even a single in-flight LK pass (the optimizer
// polls every 64 cities).
func cancelPoll(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// Result reports a Run's outcome.
type Result struct {
	Tour     tsp.Tour
	Length   int64
	Kicks    int64
	Improves int64
	Elapsed  time.Duration
}

// Solver is a Chained Lin-Kernighan engine over one instance. It keeps the
// incumbent tour between Run calls, so the distributed EA can kick, run,
// replace, and resume. Not safe for concurrent use.
type Solver struct {
	Inst   *tsp.Instance
	Nbr    *neighbor.Lists
	params Params
	rng    *rand.Rand

	opt     *lk.Optimizer // working tour
	best    *lk.ArrayTour // incumbent snapshot
	bestLen int64

	kicker kicker

	// Rec, when set, receives kick and improvement events and keeps the
	// solver's counters. A nil recorder costs one nil check per kick.
	Rec *obs.Recorder

	kicks int64
}

// normalize fills zero-valued fields with defaults so callers can set only
// what they care about.
func (p Params) normalize() Params {
	def := DefaultParams()
	if p.LK.MaxDepth == 0 {
		p.LK = def.LK
	}
	if p.NeighborK == 0 {
		p.NeighborK = def.NeighborK
	}
	return p
}

// New builds a solver. It constructs candidate lists (unless provided), the
// initial tour, and runs a full LK pass so Best starts at a local optimum.
func New(inst *tsp.Instance, p Params, seed int64) *Solver {
	return newSolver(inst, p, seed, nil)
}

// resolveNeighbors returns the explicit Neighbors override, or builds
// k-nearest lists.
func resolveNeighbors(inst *tsp.Instance, p Params) *neighbor.Lists {
	if p.Neighbors != nil {
		return p.Neighbors
	}
	return neighbor.Build(inst, p.NeighborK)
}

// newSolver is New with an abort hook threaded into the construction LK
// pass, so a cancelled Group stops building promptly. An aborted pass
// still leaves a valid (just less optimized) initial incumbent.
func newSolver(inst *tsp.Instance, p Params, seed int64, stop func() bool) *Solver {
	p = p.normalize()
	nbr := resolveNeighbors(inst, p)
	rng := rand.New(rand.NewSource(seed))
	s := &Solver{
		Inst:   inst,
		Nbr:    nbr,
		params: p,
		rng:    rng,
	}
	s.kicker = kicker{
		strategy: p.Kick,
		nbr:      nbr,
		rng:      rng,
		dist:     inst.DistFunc(),
		// Sized once so the steady-state kick loop never allocates: the
		// double-bridge rewrite needs at most n cities.
		segBuf: make([]int32, 0, inst.N()),
	}
	if p.Kick == KickClose {
		// The Close strategy's subset holds at most n-1 cities.
		s.kicker.subset = make([]int32, 0, inst.N())
	}
	initial := construct.Build(p.Construct, inst, nbr, rng)
	s.opt = lk.NewOptimizer(inst, nbr, initial, p.LK)
	s.opt.OptimizeAll(stop)
	s.best = lk.NewArrayTour(s.opt.Tour.Tour())
	s.bestLen = s.opt.Length()
	return s
}

// Best returns the incumbent tour (copied) and its length.
func (s *Solver) Best() (tsp.Tour, int64) {
	return s.best.Tour(), s.bestLen
}

// BestLength returns the incumbent length.
func (s *Solver) BestLength() int64 { return s.bestLen }

// Kicks returns the cumulative number of kicks applied.
func (s *Solver) Kicks() int64 { return s.kicks }

// SetTour replaces the incumbent with the given tour (not re-optimized).
func (s *Solver) SetTour(t tsp.Tour) {
	s.best.SetTour(t)
	s.bestLen = t.Length(s.Inst)
	s.opt.SetTour(t)
}

// Reconstruct discards the incumbent, builds a fresh initial tour with the
// given method, LK-optimizes it, and installs it as the new incumbent. The
// distributed EA's restart rule (NumNoImprovements > c_r) uses this.
func (s *Solver) Reconstruct(m construct.Method) int64 {
	initial := construct.Build(m, s.Inst, s.Nbr, s.rng)
	s.opt.SetTour(initial)
	s.opt.OptimizeAll(nil)
	s.best.CopyFrom(s.opt.Tour)
	s.bestLen = s.opt.Length()
	return s.bestLen
}

// OptimizeCurrent runs a full LK pass on the incumbent (used after an
// externally supplied tour) and returns the new length.
func (s *Solver) OptimizeCurrent() int64 {
	s.opt.OptimizeAll(nil)
	if s.opt.Length() < s.bestLen {
		s.best.CopyFrom(s.opt.Tour)
		s.bestLen = s.opt.Length()
	}
	return s.bestLen
}

// KickOnce perturbs the working tour with one double-bridge (per strategy)
// and locally re-optimizes. It accepts the result as the new incumbent iff
// it is no longer than the incumbent (linkern accepts ties to drift across
// plateaus); otherwise the working tour reverts to the incumbent.
// It reports whether the incumbent strictly improved.
func (s *Solver) KickOnce() bool { return s.kickOnce(nil) }

// kickOnce is KickOnce with an abort hook threaded into the embedded LK
// pass; an aborted pass still leaves a valid working tour, so acceptance
// logic is unchanged.
//
//distlint:hotpath
func (s *Solver) kickOnce(stop func() bool) bool {
	var delta int64
	var touched [8]int32
	delta, touched, s.kicker.segBuf = doubleBridge(s.opt.Tour, s.kicker.selectCities(s.Inst.N()), s.kicker.dist, s.kicker.segBuf)
	s.opt.SetLength(s.bestLen + delta)
	s.opt.QueueCities(touched[:])
	s.opt.Optimize(stop)
	s.kicks++
	if s.opt.Length() <= s.bestLen {
		improved := s.opt.Length() < s.bestLen
		s.bestLen = s.opt.Length()
		s.best.CopyFrom(s.opt.Tour)
		s.Rec.Record(obs.KindKickAccepted, s.bestLen, -1)
		return improved
	}
	// Revert the working tour to the incumbent.
	s.opt.Tour.CopyFrom(s.best)
	s.opt.SetLength(s.bestLen)
	s.Rec.Record(obs.KindKickReverted, 0, -1)
	return false
}

// Run chains kicks until the budget expires or ctx is done, and returns
// the incumbent. Cancellation is responsive mid-kick: the context is also
// polled inside the LK pass.
func (s *Solver) Run(ctx context.Context, b Budget) Result {
	//lint:ignore nodeterminism Elapsed is reporting-only; it never feeds back into the seeded search
	start := time.Now()
	kicks, improves := s.chain(ctx, cancelPoll(ctx), b)
	tour, l := s.Best()
	return Result{
		Tour:     tour,
		Length:   l,
		Kicks:    kicks,
		Improves: improves,
		//lint:ignore nodeterminism Elapsed is reporting-only; it never feeds back into the seeded search
		Elapsed: time.Since(start),
	}
}

// chain is Run's kick loop without the result copy; RunPerturbed and a
// Group round call it directly. It returns the kicks made and the strict improvements.
//
//distlint:hotpath
func (s *Solver) chain(ctx context.Context, stop func() bool, b Budget) (kicks, improves int64) {
	for ; !b.expired(ctx, kicks, s.bestLen); kicks++ {
		if s.kickOnce(stop) {
			improves++
			s.Rec.Record(obs.KindLKImprove, s.bestLen, -1)
		}
	}
	return kicks, improves
}

// Perturb applies `count` double-bridge moves to the incumbent *without*
// re-optimizing or acceptance, placing the perturbed tour in the working
// state with kick endpoints queued. The distributed EA uses this as its
// variable-strength VARIATETOUR step; the caller then runs RunPerturbed.
func (s *Solver) Perturb(count int) {
	s.opt.Tour.CopyFrom(s.best)
	length := s.bestLen
	for i := 0; i < count; i++ {
		var delta int64
		var touched [8]int32
		delta, touched, s.kicker.segBuf = doubleBridge(s.opt.Tour, s.kicker.selectCities(s.Inst.N()), s.kicker.dist, s.kicker.segBuf)
		length += delta
		s.opt.QueueCities(touched[:])
	}
	s.opt.SetLength(length)
	s.Rec.Record(obs.KindPerturb, int64(count), -1)
}

// RunPerturbed is the distributed EA's chained LK call. It re-optimizes
// the perturbed working tour (see Perturb) and adopts it as the chain
// incumbent even if it is worse than the previous one — the EA's
// SELECTBESTTOUR owns acceptance — then chains b.MaxKicks kicks from it;
// a zero MaxKicks makes none. It leaves Elapsed unset: the EA keeps its
// own clock.
func (s *Solver) RunPerturbed(ctx context.Context, b Budget) Result {
	stop := cancelPoll(ctx)
	s.opt.Optimize(stop)
	s.bestLen = s.opt.Length()
	s.best.CopyFrom(s.opt.Tour)
	var res Result
	if b.MaxKicks > 0 {
		res.Kicks, res.Improves = s.chain(ctx, stop, b)
	}
	res.Tour, res.Length = s.Best()
	return res
}
