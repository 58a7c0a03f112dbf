// Command solved runs the multi-tenant solve service: a JSON HTTP API
// over the chained Lin-Kernighan solver with a bounded worker pool,
// admission control, live SSE/JSONL progress streams, and a result
// cache keyed by instance hash + canonical parameters (DESIGN.md §11).
//
// Usage:
//
//	solved -listen :8080 -workers 2 -queue 8
//
// On SIGINT/SIGTERM the service stops admitting jobs (new submissions
// get 503 + Retry-After), drains in-flight and queued solves within
// -drain, then exits 0. A second signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distclk/internal/cli"
	"distclk/internal/serve"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "listen address")
		workers   = flag.Int("workers", 1, "worker-pool size (concurrent solves)")
		queue     = flag.Int("queue", 8, "queue depth per priority class")
		cacheSize = flag.Int("cache", 128, "result-cache entries")
		maxN      = flag.Int("maxn", 20000, "largest accepted instance (cities)")
		defBudget = flag.Duration("budget", 2*time.Second, "default per-job solve budget")
		maxBudget = flag.Duration("max-budget", 30*time.Second, "largest per-job budget a request may ask for")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain deadline")
		pprofAd   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	// First signal begins the graceful path; once the context is
	// cancelled the handler is unregistered, so a second signal takes the
	// default fatal disposition (force quit).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	if err := cli.ServeDebug(*pprofAd, "", nil); err != nil {
		fmt.Fprintln(os.Stderr, "solved:", err)
		os.Exit(1)
	}

	// The service root is NOT the signal context: a signal must stop
	// admissions and drain, not yank every running solve. Shutdown
	// force-cancels stragglers itself once the drain deadline passes.
	svc := serve.New(context.Background(), serve.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cacheSize,
		MaxN:          *maxN,
		DefaultBudget: *defBudget,
		MaxBudget:     *maxBudget,
	})
	hs := &http.Server{Addr: *listen, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("solved: listening on %s (%d workers, queue %d)\n", *listen, *workers, *queue)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "solved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("solved: signal received; draining (second signal force-quits)")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "solved: drain:", err)
		hs.Close()
		os.Exit(1)
	}
	hs.Shutdown(dctx)
	fmt.Println("solved: drained; bye")
}
