package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Admission errors; the HTTP layer maps them to 429 and 503.
var (
	errQueueFull = errors.New("serve: queue full")
	errDraining  = errors.New("serve: draining, not accepting jobs")
)

// pool runs admitted jobs on a fixed set of workers. Two bounded FIFO
// classes implement the priority scheme: workers always prefer
// interactive jobs and fall back to batch.
type pool struct {
	interactive chan *job
	batch       chan *job
	stop        chan struct{} // closed by shutdown: drain and exit
	wg          sync.WaitGroup
	run         func(ctx context.Context, j *job) (finish func())

	draining atomic.Bool
	active   atomic.Int64
	complete atomic.Int64
	rejected atomic.Int64
}

// newPool starts `workers` goroutines under ctx (the server's root
// context, NOT a request context). run executes one job synchronously and
// returns what completes it (nil when there is nothing to complete).
func newPool(ctx context.Context, workers, depth int, run func(ctx context.Context, j *job) (finish func())) *pool {
	p := &pool{
		interactive: make(chan *job, depth),
		batch:       make(chan *job, depth),
		stop:        make(chan struct{}),
		run:         run,
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

// execute runs one job. The counters change before the job's waiters are
// released, so a client that reads /v1/stats after its response sees the
// job completed.
func (p *pool) execute(ctx context.Context, j *job) {
	p.active.Add(1)
	finish := p.run(ctx, j)
	p.active.Add(-1)
	p.complete.Add(1)
	if finish != nil {
		finish()
	}
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
