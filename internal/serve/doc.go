// Package serve is the multi-tenant solve service: a stdlib-only JSON
// HTTP API that accepts TSP solve jobs, runs them on a bounded worker
// pool over the root distclk Solver, streams per-job progress from the
// internal/obs event spine as SSE or JSONL, and caches completed results
// by instance hash + canonicalized parameters so repeat submissions
// return instantly and byte-identically (ROADMAP item 1).
//
// Request flow: admission → queue → pool → cache.
//
//   - Admission: a draining server refuses new jobs with 503; a full
//     priority queue refuses with 429 + Retry-After. Admission control is
//     non-blocking — a burst beyond queue capacity fails fast instead of
//     stacking goroutines.
//   - Queue: two bounded FIFO classes, "interactive" and "batch". Workers
//     always prefer interactive jobs; batch jobs run when no interactive
//     work is queued.
//   - Pool: a fixed set of worker goroutines, each solving one job at a
//     time.
//   - Cache: an LRU over marshaled response bodies keyed by the SHA-256
//     instance hash plus the canonical parameter string; a hit replays
//     the stored bytes without touching the queue.
//
// Every job derives its context from the root context handed to New —
// not from the submitting HTTP request — so a client that disconnects
// after submission does not cancel a solve whose result is about to be
// cached. DELETE /v1/jobs/{id} cancels explicitly; Shutdown stops
// admissions, drains the queues within a deadline, then force-cancels.
//
//distlint:ctx
package serve
