package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/serve"
	"distclk/internal/tsp"
)

// serve-mix: an in-process solve service (one worker) on a loopback
// listener, driven by two closed-loop clients through a seeded request
// sequence of cache misses (distinct instances) and cache hits (repeats of
// instances already answered).
const (
	serveClients = 2
	// serveDistinctPerSecond distinct instances per nominal second (240 at
	// 30s, so the miss p90 has 24 samples beyond it).
	serveDistinctPerSecond = 8
	serveMinN, serveMaxN   = 1000, 2000
	serveMaxKicks          = 20
	serveBudgetMS          = 30_000 // the service's default cap: kicks, not the clock, end a solve
	serveUploadEvery       = 4      // every 4th distinct instance is a TSPLIB upload
	serveRepeatLag         = 4      // a repeat follows its original by at least this many misses
	serveSetupReps         = 1001
	// serveProbeEvery requests run between two probe passes, which run
	// while the service is idle, so never beside a solve.
	serveProbeEvery = 24
)

type serveInstance struct {
	fam  family
	pts  []point
	body []byte
	// answer is the first response body; answered is closed once it is in.
	answer   []byte
	answered chan struct{}
}

type serveItem struct {
	inst   int
	repeat bool
}

// serveInputs builds the distinct instances and the request sequence: one
// miss per instance, each followed (after the first serveRepeatLag) by a
// repeat of a uniformly chosen earlier instance.
func serveInputs(seed int64, distinct int) ([]*serveInstance, []serveItem) {
	rng := rngFor(seed, 1)
	sizes := rng.Perm(distinct)
	insts := make([]*serveInstance, distinct)
	var seq []serveItem
	for i := range insts {
		// Stratified sizes: one per slot of the 1000-2000 range.
		n := serveMinN + (sizes[i]*(serveMaxN-serveMinN)+rng.Intn(serveMaxN-serveMinN))/distinct
		fam := family(i % 3)
		pts := generate(fam, n, rng)
		name := fmt.Sprintf("%s%d-%d", fam, n, i)
		req := serve.SolveRequest{Name: name, Params: serve.SolveParams{MaxKicks: serveMaxKicks, BudgetMS: serveBudgetMS}}
		if i%serveUploadEvery == serveUploadEvery-1 {
			req.TSPLIB = tsplib(name, pts)
		} else {
			req.Coords = make([][2]float64, n)
			for j, p := range pts {
				req.Coords[j] = [2]float64{float64(p.X), float64(p.Y)}
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		insts[i] = &serveInstance{fam: fam, pts: pts, body: body, answered: make(chan struct{})}
		seq = append(seq, serveItem{inst: i})
		if i >= serveRepeatLag {
			seq = append(seq, serveItem{inst: rng.Intn(i - serveRepeatLag + 1), repeat: true})
		}
	}
	return insts, seq
}

// service is one in-process server on a loopback listener.
type service struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startService(distinct int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  serve.New(context.Background(), serve.Options{Workers: 1, CacheEntries: 2 * distinct}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	resp, err := http.Get(s.url + "/v1/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// timeStarts starts a service reps times and returns how long each start
// took; each is stopped outside the clock, and the probe may run a pass
// between them.
func timeStarts(distinct, reps int, pr *probe, tr *tracer, root int) ([]float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		id := tr.begin("serve.start", root, 0)
		t := time.Now()
		s, err := startService(distinct)
		tr.end(id)
		if err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(t).Seconds())
		s.stop()
		pr.tick()
	}
	return ds, nil
}

func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.srv.Shutdown(ctx)
}

func (s *service) stats(c *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reply is one completed request as the client saw it.
type reply struct {
	item      serveItem
	status    int
	cache     string
	body      []byte
	latencyMS float64
	err       error
	span      int
}

// post sends one request and reads the whole reply.
func post(c *http.Client, url string, body []byte) (status int, cache string, out []byte, err error) {
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

// judge checks one reply and returns why it failed, if it did. For a miss
// it also returns the decoded answer.
func judge(insts []*serveInstance, r reply) (*serve.SolveResponse, error) {
	in := insts[r.item.inst]
	switch {
	case r.err != nil:
		return nil, r.err
	case r.status != http.StatusOK:
		return nil, fmt.Errorf("status %d: %s", r.status, strings.TrimSpace(string(r.body)))
	case r.item.repeat && r.cache != "hit":
		return nil, fmt.Errorf("repeat of instance %d got X-Cache %q", r.item.inst, r.cache)
	case r.item.repeat && !bytes.Equal(r.body, in.answer):
		return nil, fmt.Errorf("repeat of instance %d: body differs from the first answer", r.item.inst)
	case r.item.repeat:
		return nil, nil
	case r.cache != "miss":
		return nil, fmt.Errorf("first request for instance %d got X-Cache %q", r.item.inst, r.cache)
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, fmt.Errorf("instance %d: %v", r.item.inst, err)
	}
	if resp.Status != "done" {
		return nil, fmt.Errorf("instance %d: status %q", r.item.inst, resp.Status)
	}
	if err := checkTour(in.pts, resp.Tour, resp.Length); err != nil {
		return nil, fmt.Errorf("instance %d: %v", r.item.inst, err)
	}
	return &resp, nil
}

// drive runs the sequence through closed-loop clients: each sends its next
// request only after the previous reply. A repeat waits until its
// instance's first answer is in, so every repeat is a hit. Request i is
// traced as op op0+i+1, a child of span root.
func drive(c *http.Client, url string, insts []*serveInstance, seq []serveItem, clients, op0 int, tr *tracer, root int) []reply {
	replies := make([]reply, len(seq))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seq) {
					return
				}
				it := seq[i]
				in := insts[it.inst]
				if it.repeat {
					<-in.answered
				}
				id := tr.begin("http.request", root, op0+i+1)
				t := time.Now()
				status, cache, body, err := post(c, url, in.body)
				lat := time.Since(t)
				tr.end(id)
				r := reply{item: it, status: status, cache: cache, body: body, latencyMS: ms(lat), err: err, span: id}
				if !it.repeat {
					in.answer = body
					close(in.answered)
				}
				replies[i] = r
			}
		}()
	}
	wg.Wait()
	return replies
}

func runServe(seed int64, seconds int, tr *tracer) *outcome {
	o := newOutcome()
	distinct := serveDistinctPerSecond * seconds
	insts, seq := serveInputs(seed, distinct)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()

	// A server starts in well under a millisecond, so its set-up is timed
	// over many starts, half before the load and half after it.
	root := tr.begin("serve", 0, 0)
	pr := newProbe()
	pr.tr, pr.parent = tr, root
	setups, err := timeStarts(distinct, serveSetupReps/2, pr, tr, root)
	id := tr.begin("serve.start", root, 0)
	t := time.Now()
	svc, err2 := startService(distinct)
	setups = append(setups, time.Since(t).Seconds())
	tr.end(id)
	if err = errors.Join(err, err2); err != nil {
		tr.end(root)
		o.attempted = 1
		o.fail("starting the service: %v", err)
		if svc != nil {
			svc.stop()
		}
		return o
	}
	defer svc.stop()
	var heap heapPeak
	heap.mark()

	// The load runs in rounds of serveProbeEvery requests with a probe
	// pass between rounds; run is the time of the rounds.
	var replies []reply
	var run time.Duration
	for lo := 0; lo < len(seq); lo += serveProbeEvery {
		t0 := time.Now()
		replies = append(replies, drive(client, svc.url, insts, seq[lo:min(lo+serveProbeEvery, len(seq))], serveClients, lo, tr, root)...)
		run += time.Since(t0)
		pr.pass()
	}
	heap.mark()

	var missMS, hitMS, queueMS, solveMS, lengths []float64
	for i, r := range replies {
		o.attempted++
		resp, err := judge(insts, r)
		if err != nil {
			o.fail("request %d: %v", i, err)
			continue
		}
		if r.item.repeat {
			hitMS = append(hitMS, r.latencyMS)
			continue
		}
		missMS = append(missMS, r.latencyMS)
		lengths = append(lengths, float64(resp.Length))
		queueMS = append(queueMS, r.latencyMS-resp.ElapsedMS)
		solveMS = append(solveMS, resp.ElapsedMS)
		if tr != nil {
			sp := tr.spans[r.span-1]
			tr.add("serve.solve", sp.ID, sp.Op, sp.End-time.Duration(resp.ElapsedMS*1e6), sp.End)
		}
	}
	st, err := svc.stats(client)
	if err != nil {
		o.fail("reading /v1/stats: %v", err)
	}
	more, err := timeStarts(distinct, serveSetupReps/2, pr, tr, root)
	if err != nil {
		o.fail("starting the service: %v", err)
	}
	setups = append(setups, more...)
	tr.end(root)
	tourLen := mean(lengths)
	scale := pr.scale()
	o.e2e.set("setup_s", median(setups)*scale, "s")
	o.runS = run.Seconds()
	o.e2e.set("run_s", o.runS*scale, "s")
	o.e2e.set("tour_len", tourLen, "length")
	o.e2e.set("peak_heap_mb", heap.mib(), "MiB")
	hitRatio := float64(st.CacheHits) / float64(max(1, st.CacheHits+st.CacheMisses))
	o.det["tour_len"] = tourLen
	o.det["serve.hit_ratio"] = hitRatio
	if tr == nil {
		return o
	}

	// The ladder runs on the first distinct instance; the set-up rungs a
	// cache miss runs are then replaced by their medians over a sample of
	// all three families.
	L, D := o.layer, o.detail
	ladder(L, insts[0].pts, toInstance("ladder", insts[0].pts), seed)
	L.set("host.probe_ms", median(pr.passMS), "ms")
	replayServeLayers(L, D, insts)
	D.set("serve.solve_p50_ms", median(missMS)*scale, "ms")
	D.set("serve.solve_p90_ms", quantile(missMS, 0.9)*scale, "ms")
	D.set("serve.hit_p50_ms", median(hitMS)*scale, "ms")
	D.set("serve.req_per_s", float64(len(seq))/(run.Seconds()*scale), "1/s")
	D.set("serve.queue_ms", median(queueMS), "ms")
	D.set("serve.solve_ms", median(solveMS), "ms")
	D.set("serve.hit_ratio", hitRatio, "ratio")
	D.set("serve.scratch_reuse", float64(st.ScratchGets-st.ScratchMisses)/float64(max(1, st.ScratchGets)), "ratio")
	D.set("serve.rejected", float64(st.Rejected), "count")
	return o
}

// serveReplayPerFamily bounds the set-up rung replays to a sample of the
// distinct instances.
const serveReplayPerFamily = 8

// replayServeLayers reruns, on the workload's own instances, the set-up
// calls a cache-miss solve makes: TSPLIB parsing for uploads, Describe,
// the auto candidate selection, construction and the initial descent.
func replayServeLayers(L, D metrics, insts []*serveInstance) {
	var parse, describe, build, constr, descent []float64
	var cands int
	picks := map[string]int{}
	seen := map[family]int{}
	for i, si := range insts {
		if seen[si.fam] >= serveReplayPerFamily {
			continue
		}
		seen[si.fam]++
		in := toInstance("replay", si.pts)
		if i%serveUploadEvery == serveUploadEvery-1 {
			text := tsplib("replay", si.pts)
			t := time.Now()
			if _, err := tsp.ReadTSPLIB(strings.NewReader(text)); err == nil {
				parse = append(parse, ms(time.Since(t)))
			}
		}
		describe = append(describe, replayDescribe(in))
		t := time.Now()
		nb, choice, err := neighbor.Select(in, "auto", 10)
		if err != nil {
			continue
		}
		build = append(build, ms(time.Since(t)))
		cands += candEdges(nb)
		picks[autoPick(choice)]++
		constr = append(constr, replayConstruct(in, nb))
		p := lk.DefaultParams()
		p.RelaxDepth = choice.RelaxDepth
		descent = append(descent, replayDescent(in, nb, p))
	}
	L.set("tsp.parse_ms", median(parse), "ms")
	L.set("tsp.describe_ms", median(describe), "ms")
	L.set("neighbor.build_ms", median(build), "ms")
	L.set("neighbor.cands", float64(cands), "count")
	L.set("neighbor.auto_strategies", float64(len(picks)), "count")
	for _, k := range []string{"delaunay", "quadrant", "delaunay+relax"} {
		D.set("neighbor.auto_"+strings.ReplaceAll(k, "+", "_"), float64(picks[k]), "count")
	}
	L.set("construct.build_ms", median(constr), "ms")
	L.set("lk.descent_ms", median(descent), "ms")
}
