package serve

import (
	"fmt"
	"strings"
	"time"

	"distclk/internal/geom"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"

	"distclk/internal/clk"
)

// SolveParams selects the solver configuration for one job. The zero
// value means "service defaults"; normalize resolves them so two
// requests that spell the defaults differently share one cache entry.
type SolveParams struct {
	// Kick names the double-bridge kicking strategy (default random-walk).
	Kick string `json:"kick,omitempty"`
	// Candidates names the candidate-set strategy (default auto).
	Candidates string `json:"candidates,omitempty"`
	// Seed fixes the random seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// BudgetMS bounds the solve duration in milliseconds (default and cap
	// come from the service Options).
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// MaxKicks bounds the solve by kick count; 0 = time-bounded only.
	MaxKicks int64 `json:"max_kicks,omitempty"`
	// Target stops the solve at this tour length; 0 = none.
	Target int64 `json:"target,omitempty"`
	// RelaxDepth sets the relaxed-gain depth; nil follows the candidate
	// strategy's recommendation.
	RelaxDepth *int `json:"relax_depth,omitempty"`
}

// normalize fills defaults and validates ranges against the service
// limits, returning the resolved params used for both solving and cache
// keying.
func (p SolveParams) normalize(opt Options) (SolveParams, error) {
	if p.Kick == "" {
		p.Kick = "random-walk"
	}
	if _, err := clk.ParseKick(p.Kick); err != nil {
		return p, err
	}
	if p.Candidates == "" {
		p.Candidates = "auto"
	}
	if p.Candidates != "auto" {
		if _, err := neighbor.ByName(p.Candidates); err != nil {
			return p, err
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.BudgetMS == 0 {
		p.BudgetMS = opt.DefaultBudget.Milliseconds()
	}
	if p.BudgetMS < 0 {
		return p, fmt.Errorf("negative budget_ms %d", p.BudgetMS)
	}
	if max := opt.MaxBudget.Milliseconds(); p.BudgetMS > max {
		return p, fmt.Errorf("budget_ms %d exceeds the service cap %d", p.BudgetMS, max)
	}
	if p.MaxKicks < 0 {
		return p, fmt.Errorf("negative max_kicks %d", p.MaxKicks)
	}
	if p.Target < 0 {
		return p, fmt.Errorf("negative target %d", p.Target)
	}
	if p.RelaxDepth != nil && *p.RelaxDepth < 0 {
		return p, fmt.Errorf("negative relax_depth %d", *p.RelaxDepth)
	}
	return p, nil
}

// canonical renders the normalized params as the deterministic cache-key
// fragment. Fields are fixed-order key=value pairs, so equal params
// always yield equal strings.
func (p SolveParams) canonical() string {
	relax := "auto"
	if p.RelaxDepth != nil {
		relax = fmt.Sprintf("%d", *p.RelaxDepth)
	}
	return fmt.Sprintf("kick=%s&candidates=%s&seed=%d&budget_ms=%d&max_kicks=%d&target=%d&relax=%s",
		p.Kick, p.Candidates, p.Seed, p.BudgetMS, p.MaxKicks, p.Target, relax)
}

// SolveRequest is the POST body for /v1/solve and /v1/jobs. Exactly one
// of Coords or TSPLIB must carry the instance.
type SolveRequest struct {
	// Name labels the instance in responses; it does not affect solving
	// or caching.
	Name string `json:"name,omitempty"`
	// Coords is the inline form: one [x, y] pair per city.
	Coords [][2]float64 `json:"coords,omitempty"`
	// Metric is the TSPLIB edge-weight type for Coords ("euc2d" default;
	// also ceil2d, att, geo, man2d, max2d).
	Metric string `json:"metric,omitempty"`
	// TSPLIB is the upload form: a complete TSPLIB .tsp file as text.
	TSPLIB string `json:"tsplib,omitempty"`
	// Priority is the admission class: "interactive" (default) or "batch".
	Priority string `json:"priority,omitempty"`
	// Params tunes the solve; zero value = service defaults.
	Params SolveParams `json:"params"`
}

// instance materializes the request's instance and validates its size.
func (r *SolveRequest) instance(maxN int) (*tsp.Instance, error) {
	var in *tsp.Instance
	switch {
	case r.TSPLIB != "" && len(r.Coords) > 0:
		return nil, fmt.Errorf("give either coords or tsplib, not both")
	case r.TSPLIB != "":
		var err error
		in, err = tsp.ReadTSPLIB(strings.NewReader(r.TSPLIB))
		if err != nil {
			return nil, err
		}
	case len(r.Coords) > 0:
		metric, err := geom.ParseMetric(r.Metric)
		if err != nil {
			return nil, err
		}
		pts := make([]geom.Point, len(r.Coords))
		for i, c := range r.Coords {
			if err := tsp.CheckCoord(c[0], c[1]); err != nil {
				return nil, fmt.Errorf("city %d: %w", i, err)
			}
			pts[i] = geom.Point{X: c[0], Y: c[1]}
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("inline%d", len(pts))
		}
		in = tsp.New(name, metric, pts)
	default:
		return nil, fmt.Errorf("empty request: give coords or tsplib")
	}
	if n := in.N(); n < minCities {
		return nil, fmt.Errorf("instance has %d cities, need at least %d", n, minCities)
	} else if n > maxN {
		return nil, fmt.Errorf("instance has %d cities, service limit is %d", n, maxN)
	}
	return in, nil
}

// minCities is the smallest accepted instance: the double-bridge kick
// rewires four distinct tour positions, and anything this small is
// cheaper to solve client-side anyway.
const minCities = 8

// SolveResponse reports one solved job. Cached replays return these
// bytes verbatim, so the body carries no per-request fields; cache
// status travels in the X-Cache header instead.
type SolveResponse struct {
	Status       string  `json:"status"`
	Name         string  `json:"name,omitempty"`
	N            int     `json:"n"`
	InstanceHash string  `json:"instance_hash"`
	Params       string  `json:"params"`
	Tour         []int32 `json:"tour,omitempty"`
	Length       int64   `json:"length,omitempty"`
	Kicks        int64   `json:"kicks,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} projection of a job.
type JobStatus struct {
	JobID    string         `json:"job_id"`
	Status   string         `json:"status"`
	Priority string         `json:"priority"`
	Result   *SolveResponse `json:"result,omitempty"`
}

// Stats is the GET /v1/stats snapshot.
type Stats struct {
	Workers       int   `json:"workers"`
	Active        int64 `json:"active"`
	QueuedInter   int   `json:"queued_interactive"`
	QueuedBatch   int   `json:"queued_batch"`
	Completed     int64 `json:"completed"`
	Rejected      int64 `json:"rejected"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheEntries  int   `json:"cache_entries"`
	EventsDropped int64 `json:"events_dropped"`
	Draining      bool  `json:"draining"`

	// ScratchGets and ScratchMisses are never set and never encoded. They
	// remain because perfbench/serve.go still reads them for its
	// serve.scratch_reuse diagnostic, which now reads 0.
	ScratchGets   int64 `json:"-"`
	ScratchMisses int64 `json:"-"`
}

// parsePriority maps the request class to a queue, defaulting to
// interactive.
func parsePriority(p string) (string, error) {
	switch p {
	case "", "interactive":
		return "interactive", nil
	case "batch":
		return "batch", nil
	}
	return "", fmt.Errorf("unknown priority %q (want interactive or batch)", p)
}

// retryAfterSeconds is the hint sent with 429/503: roughly one default
// budget, the time one queued slot takes to free up.
func retryAfterSeconds(opt Options) int {
	s := int(opt.DefaultBudget / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
