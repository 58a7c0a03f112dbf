package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"distclk/internal/clk"
)

// Admission errors; the HTTP layer maps them to 429 and 503.
var (
	errQueueFull = errors.New("serve: queue full")
	errDraining  = errors.New("serve: draining, not accepting jobs")
)

// pool runs admitted jobs on a fixed set of workers. Two bounded FIFO
// classes implement the priority scheme: workers always prefer
// interactive jobs and fall back to batch. Per-job scratch memory comes
// from a sync.Pool so steady-state traffic recycles the CSR tables and
// LK/kick buffers instead of re-allocating them per job (the refactor
// ROADMAP item 1 flags as in-scope).
type pool struct {
	interactive chan *job
	batch       chan *job
	stop        chan struct{} // closed by shutdown: drain and exit
	wg          sync.WaitGroup
	run         func(ctx context.Context, j *job, sc *clk.Scratch)

	draining atomic.Bool
	active   atomic.Int64
	complete atomic.Int64
	rejected atomic.Int64

	scratch       scratchPool
	scratchGets   atomic.Int64
	scratchMisses atomic.Int64
}

// scratchPool holds idle per-job scratch: a sync.Pool (without New) in
// the service, a deterministic free list in tests. Get returns nil when
// nothing can be recycled.
type scratchPool interface {
	Get() any
	Put(any)
}

// newPool starts `workers` goroutines under ctx (the server's root
// context, NOT a request context). run executes one job synchronously.
func newPool(ctx context.Context, workers, depth int, run func(ctx context.Context, j *job, sc *clk.Scratch)) *pool {
	p := &pool{
		interactive: make(chan *job, depth),
		batch:       make(chan *job, depth),
		stop:        make(chan struct{}),
		run:         run,
		scratch:     new(sync.Pool),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(ctx)
	}
	return p
}

// enqueue admits j into its priority class without blocking: a full
// queue or a draining pool refuses immediately.
func (p *pool) enqueue(j *job) error {
	if p.draining.Load() {
		p.rejected.Add(1)
		return errDraining
	}
	q := p.interactive
	if j.priority == "batch" {
		q = p.batch
	}
	select {
	case q <- j:
		return nil
	default:
		p.rejected.Add(1)
		return errQueueFull
	}
}

// worker pulls jobs until shutdown, always preferring the interactive
// class. After stop closes it drains both queues empty, then exits —
// queued jobs run to completion during a drain, they are not dropped.
func (p *pool) worker(ctx context.Context) {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.interactive:
			p.execute(ctx, j)
			continue
		default:
		}
		select {
		case j := <-p.interactive:
			p.execute(ctx, j)
		case j := <-p.batch:
			p.execute(ctx, j)
		case <-p.stop:
			for {
				select {
				case j := <-p.interactive:
					p.execute(ctx, j)
				case j := <-p.batch:
					p.execute(ctx, j)
				default:
					return
				}
			}
		}
	}
}

// execute runs one job with pooled scratch. The scratch returns to the
// pool on every path — including deadline-cancelled and failed solves —
// so a cancelled job frees its buffers for the next one.
func (p *pool) execute(ctx context.Context, j *job) {
	p.active.Add(1)
	defer p.active.Add(-1)
	defer p.complete.Add(1)
	p.scratchGets.Add(1)
	sc, _ := p.scratch.Get().(*clk.Scratch)
	if sc == nil {
		// Every Get that cannot recycle lands here, so gets - misses =
		// pool hits.
		p.scratchMisses.Add(1)
		sc = new(clk.Scratch)
	}
	defer p.scratch.Put(sc)
	p.run(ctx, j, sc)
}

// beginDrain stops admissions and tells workers to exit once the queues
// are empty.
func (p *pool) beginDrain() {
	if p.draining.CompareAndSwap(false, true) {
		close(p.stop)
	}
}

// wait blocks until every worker has exited or ctx is done.
func (p *pool) wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sweepQueued cancels every job still sitting in the queues — the
// shutdown path after a drain deadline expired.
func (p *pool) sweepQueued() {
	for {
		select {
		case j := <-p.interactive:
			j.requestCancel()
		case j := <-p.batch:
			j.requestCancel()
		default:
			return
		}
	}
}
