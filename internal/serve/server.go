package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distclk"
	"distclk/internal/obs"
)

// Options configures the service; zero values take the documented
// defaults.
type Options struct {
	// Workers is the worker-pool size — the number of jobs solved
	// concurrently (default 1).
	Workers int
	// QueueDepth bounds each priority class's queue; an admission beyond
	// it gets 429 (default 8).
	QueueDepth int
	// CacheEntries bounds the result LRU (default 128).
	CacheEntries int
	// MaxN rejects instances above this city count (default 20000).
	MaxN int
	// DefaultBudget is the per-job solve budget when the request does not
	// set budget_ms (default 2s).
	DefaultBudget time.Duration
	// MaxBudget caps the per-job budget a request may ask for
	// (default 30s).
	MaxBudget time.Duration
	// JobsRetained bounds the in-memory job registry; beyond it the
	// oldest terminal jobs are forgotten (default 256).
	JobsRetained int
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 8
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 128
	}
	if o.MaxN < 1 {
		o.MaxN = 20000
	}
	if o.DefaultBudget <= 0 {
		o.DefaultBudget = 2 * time.Second
	}
	if o.MaxBudget <= 0 {
		o.MaxBudget = 30 * time.Second
	}
	if o.MaxBudget < o.DefaultBudget {
		o.MaxBudget = o.DefaultBudget
	}
	if o.JobsRetained < 1 {
		o.JobsRetained = 256
	}
	return o
}

// maxBodyBytes bounds request bodies; a 20k-city TSPLIB upload is well
// under 2 MiB, so 16 MiB leaves generous headroom.
const maxBodyBytes = 16 << 20

// Server is the solve service. Build it with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	opt        Options
	cancelJobs context.CancelFunc
	pool       *pool
	cache      *cache
	mux        *http.ServeMux

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // registration order, for pruning
	seq   atomic.Int64
}

// New builds the service and starts its worker pool under ctx — the
// server's root: every job context derives from it, NOT from the
// submitting HTTP request, so client disconnects never cancel an
// admitted solve. Cancel it (or call Shutdown) to stop.
func New(ctx context.Context, opt Options) *Server {
	opt = opt.withDefaults()
	jobCtx, cancel := context.WithCancel(ctx)
	s := &Server{
		opt:        opt,
		cancelJobs: cancel,
		cache:      newCache(opt.CacheEntries),
		jobs:       make(map[string]*job),
	}
	s.pool = newPool(jobCtx, opt.Workers, opt.QueueDepth, s.runJob)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler { return s.mux }

// shutdownGrace bounds the post-force-cancel wait for workers after the
// caller's drain deadline already expired.
const shutdownGrace = 3 * time.Second

// Shutdown stops admissions, lets the workers drain the queues, and
// waits until they exit or ctx is done. On deadline it force-cancels
// running solves (they return their best-so-far and finish quickly) and
// waits a short grace for the workers to wind down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.pool.beginDrain()
	if err := s.pool.wait(ctx); err == nil {
		return nil
	}
	s.cancelJobs()
	done := make(chan struct{})
	go func() {
		s.pool.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(shutdownGrace)
	defer t.Stop()
	select {
	case <-done:
		s.pool.sweepQueued()
		return nil
	case <-t.C:
		return fmt.Errorf("serve: workers did not exit within the drain deadline")
	}
}

// admit validates the request, consults the cache, and enqueues a job.
// Exactly one of (cachedBody, j, err) is non-zero.
func (s *Server) admit(req *SolveRequest) (cachedBody []byte, j *job, err error) {
	prio, err := parsePriority(req.Priority)
	if err != nil {
		return nil, nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	params, err := req.Params.normalize(s.opt)
	if err != nil {
		return nil, nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	in, err := req.instance(s.opt.MaxN)
	if err != nil {
		return nil, nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	// A draining server refuses everything, cache hits included.
	if s.pool.draining.Load() {
		return nil, nil, &apiError{http.StatusServiceUnavailable, errDraining.Error()}
	}
	key := hashInstance(in) + "|" + params.canonical()
	if body, ok := s.cache.get(key); ok {
		return body, nil, nil
	}
	id := fmt.Sprintf("j%08d", s.seq.Add(1))
	j = newJob(id, prio, key, in, params)
	s.register(j)
	if err := s.pool.enqueue(j); err != nil {
		s.unregister(id)
		switch err {
		case errDraining:
			return nil, nil, &apiError{http.StatusServiceUnavailable, err.Error()}
		default:
			return nil, nil, &apiError{http.StatusTooManyRequests, err.Error()}
		}
	}
	return nil, j, nil
}

// apiError carries an HTTP status through the admission path.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

// writeError renders err as a JSON error body, attaching Retry-After to
// load-shedding statuses.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		code = ae.code
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opt)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func decodeRequest(w http.ResponseWriter, r *http.Request) (*SolveRequest, error) {
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, &apiError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	return &req, nil
}

// handleSolve is the synchronous endpoint: admit, wait for the job, and
// return its result. A cache hit replays the stored bytes immediately.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, j, err := s.admit(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if body != nil {
		writeResult(w, body, "hit")
		return
	}
	select {
	case <-j.done:
		writeResult(w, j.terminalBody(), "miss")
	case <-r.Context().Done():
		// Client gone; the job keeps running and will populate the cache.
	}
}

// handleSubmit is the asynchronous endpoint: admit and return the job id
// immediately (202). A cache hit short-circuits with the stored result.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, j, err := s.admit(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if body != nil {
		writeResult(w, body, "hit")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.status())
}

func writeResult(w http.ResponseWriter, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheStatus)
	w.Write(body)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		s.writeError(w, &apiError{http.StatusNotFound, "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		s.writeError(w, &apiError{http.StatusNotFound, "unknown job"})
		return
	}
	j.requestCancel()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.pool.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": status})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.cache.stats()
	var dropped int64
	s.mu.Lock()
	for _, j := range s.jobs {
		dropped += j.bcast.Dropped()
	}
	s.mu.Unlock()
	st := Stats{
		Workers:       s.opt.Workers,
		Active:        s.pool.active.Load(),
		QueuedInter:   len(s.pool.interactive),
		QueuedBatch:   len(s.pool.batch),
		Completed:     s.pool.complete.Load(),
		Rejected:      s.pool.rejected.Load(),
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheEntries:  entries,
		EventsDropped: dropped,
		Draining:      s.pool.draining.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// register adds j to the registry, pruning the oldest terminal jobs
// beyond the retention bound.
func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= s.opt.JobsRetained {
		return
	}
	keep := s.order[:0]
	pruned := 0
	excess := len(s.order) - s.opt.JobsRetained
	for _, id := range s.order {
		old, ok := s.jobs[id]
		if ok && pruned < excess {
			old.mu.Lock()
			terminal := old.state == stateDone || old.state == stateFailed || old.state == stateCancelled
			old.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				pruned++
				continue
			}
		}
		keep = append(keep, id)
	}
	s.order = keep
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// streamKind selects which solve events reach streaming subscribers:
// the EA-level decision points plus LK chain improvements. The raw
// kick-accepted/kick-reverted firehose (one event per kick, potentially
// thousands per second) stays out of the stream; its totals are in the
// per-job counters.
func streamKind(k obs.Kind) bool {
	return k == obs.KindLKImprove || k.EALevel()
}

// runJob executes one admitted job on a pool worker. ctx is the
// server's root job context; the per-job context layered on it is what
// DELETE and shutdown cancel. The solve budget itself is enforced by
// the facade (WithBudget), so a well-behaved job ends on its own. It
// returns what completes the job, for the pool to call.
func (s *Server) runJob(ctx context.Context, j *job) (finish func()) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !j.setRunning(cancel) {
		return nil // cancelled while queued
	}
	opts := []distclk.Option{
		distclk.WithKick(j.params.Kick),
		distclk.WithCandidates(j.params.Candidates),
		distclk.WithSeed(j.params.Seed),
		distclk.WithBudget(time.Duration(j.params.BudgetMS) * time.Millisecond),
		distclk.WithEventSink(obs.Filter(j.bcast, streamKind)),
	}
	if j.params.MaxKicks > 0 {
		opts = append(opts, distclk.WithMaxKicks(j.params.MaxKicks))
	}
	if j.params.Target > 0 {
		opts = append(opts, distclk.WithTarget(j.params.Target))
	}
	if j.params.RelaxDepth != nil {
		opts = append(opts, distclk.WithRelaxedGain(*j.params.RelaxDepth))
	}
	solver, err := distclk.New(j.in, opts...)
	if err != nil {
		return s.finishJob(j, stateFailed, &SolveResponse{
			Status:       stateFailed,
			Name:         j.in.Name,
			N:            j.in.N(),
			InstanceHash: j.instanceHash(),
			Params:       j.params.canonical(),
			Error:        err.Error(),
		}, false)
	}

	// Forward periodic progress snapshots into the event stream: the
	// facade's collector keeps snapshot events to itself, so streaming
	// clients get them re-emitted here.
	progress := solver.Progress()
	var fwd sync.WaitGroup
	fwd.Add(1)
	go func() {
		defer fwd.Done()
		for snap := range progress {
			j.bcast.Emit(obs.Event{
				At:    snap.Elapsed,
				Node:  -1,
				Kind:  obs.KindSnapshot,
				Value: snap.BestLength,
				From:  -1,
			})
		}
	}()

	res, err := solver.Solve(jctx)
	fwd.Wait()
	cancelled := jctx.Err() != nil
	if err != nil {
		return s.finishJob(j, stateFailed, &SolveResponse{
			Status:       stateFailed,
			Name:         j.in.Name,
			N:            j.in.N(),
			InstanceHash: j.instanceHash(),
			Params:       j.params.canonical(),
			Error:        err.Error(),
		}, false)
	}
	state := stateDone
	if cancelled {
		state = stateCancelled
	}
	resp := &SolveResponse{
		Status:       state,
		Name:         j.in.Name,
		N:            j.in.N(),
		InstanceHash: j.instanceHash(),
		Params:       j.params.canonical(),
		Tour:         res.Tour,
		Length:       res.Length,
		Kicks:        kicksOf(res),
		ElapsedMS:    float64(res.Elapsed.Microseconds()) / 1000,
	}
	// Only an uninterrupted solve is the canonical result for its
	// parameters: cancelled best-so-far tours must not poison the cache.
	return s.finishJob(j, state, resp, !cancelled)
}

// finishJob marshals the terminal response, optionally caches it, and
// returns what completes the job.
func (s *Server) finishJob(j *job, state string, resp *SolveResponse, cacheIt bool) func() {
	body, err := json.Marshal(resp)
	if err != nil {
		// Marshaling a SolveResponse cannot fail (plain fields only);
		// degrade to an error body rather than wedging the waiters.
		state = stateFailed
		body = []byte(`{"status":"failed","error":"internal: marshal"}`)
		cacheIt = false
	}
	if cacheIt {
		s.cache.put(j.key, body)
	}
	return func() { j.finish(state, resp, body) }
}

func kicksOf(res distclk.Result) int64 {
	var kicks int64
	for _, n := range res.PerNode {
		kicks += n.Kicks
	}
	return kicks
}
