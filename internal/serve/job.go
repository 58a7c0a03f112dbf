package serve

import (
	"context"
	"sync"

	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// Job states; transitions are queued → running → one terminal state.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job is one admitted solve. Its lifetime outlives the submitting HTTP
// request: the worker pool runs it under the server's root context, and
// any number of SSE/JSONL subscribers attach to its broadcaster.
type job struct {
	id       string
	priority string
	key      string // instance hash + canonical params (cache key)
	name     string // the instance's name and size, for the status
	n        int
	params   SolveParams

	// bcast fans solve events out to streaming subscribers; closed when
	// the job reaches a terminal state.
	bcast *obs.Broadcaster

	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu     sync.Mutex
	state  string
	in     *tsp.Instance  // the solve's input; nil once the job is terminal
	resp   *SolveResponse // terminal result (done/failed/cancelled)
	body   []byte         // marshaled resp, the bytes served and cached
	cancel context.CancelFunc
}

func newJob(id, priority, key string, in *tsp.Instance, params SolveParams) *job {
	return &job{
		id:       id,
		priority: priority,
		key:      key,
		name:     in.Name,
		n:        in.N(),
		in:       in,
		params:   params,
		bcast:    obs.NewBroadcaster(),
		done:     make(chan struct{}),
		state:    stateQueued,
	}
}

// instanceHash is the hex instance digest (the cache key's first part).
func (j *job) instanceHash() string { return j.key[:64] }

// response starts the job's terminal response with the fields every
// terminal state reports.
func (j *job) response(state string) *SolveResponse {
	return &SolveResponse{
		Status:       state,
		Name:         j.name,
		N:            j.n,
		InstanceHash: j.instanceHash(),
		Params:       j.params.canonical(),
	}
}

// status snapshots the job for GET /v1/jobs/{id}.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{JobID: j.id, Status: j.state, Priority: j.priority, Result: j.resp}
}

// setRunning records the worker's cancel hook, flips to running and
// hands the worker the instance. It returns nil if the job was cancelled
// while queued — the worker must then skip it.
func (j *job) setRunning(cancel context.CancelFunc) *tsp.Instance {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return nil
	}
	j.state = stateRunning
	j.cancel = cancel
	return j.in
}

// finish records the terminal state and result, closes the broadcaster
// and the done channel. Idempotent: the first terminal state wins.
func (j *job) finish(state string, resp *SolveResponse, body []byte) {
	j.mu.Lock()
	if j.state == stateDone || j.state == stateFailed || j.state == stateCancelled {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.resp = resp
	j.body = body
	j.cancel = nil
	// A retained terminal job reports only its name, size and hash: the
	// instance and its k-d tree go.
	j.in = nil
	j.mu.Unlock()
	j.bcast.Close()
	close(j.done)
}

// requestCancel cancels a running solve or marks a queued job cancelled.
// Safe to call at any time, including after completion.
func (j *job) requestCancel() {
	j.mu.Lock()
	cancel := j.cancel
	queued := j.state == stateQueued
	j.mu.Unlock()
	switch {
	case cancel != nil:
		cancel() // worker observes and finishes the job
	case queued:
		j.finish(stateCancelled, j.response(stateCancelled), nil)
	}
}

// terminalBody returns the marshaled terminal response, nil before the
// job finishes.
func (j *job) terminalBody() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.body
}
