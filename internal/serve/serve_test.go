package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testServer boots a service over httptest, tearing both down with the
// test.
func testServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	svc := New(ctx, opt)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
		defer scancel()
		svc.Shutdown(sctx)
		cancel()
	})
	return svc, ts
}

// reqBody builds a solve request over n deterministic random cities.
func reqBody(t *testing.T, n int, seed int64, params SolveParams, priority string) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([][2]float64, n)
	for i := range coords {
		coords[i] = [2]float64{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	body, err := json.Marshal(SolveRequest{
		Name:     fmt.Sprintf("test-%d-%d", n, seed),
		Coords:   coords,
		Priority: priority,
		Params:   params,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func checkTour(t *testing.T, raw []byte, n int) SolveResponse {
	t.Helper()
	var out SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad response %q: %v", raw, err)
	}
	if out.Status != stateDone {
		t.Fatalf("status %q, want done (error: %s)", out.Status, out.Error)
	}
	if len(out.Tour) != n || out.Length <= 0 {
		t.Fatalf("tour len %d length %d, want %d cities and positive length", len(out.Tour), out.Length, n)
	}
	seen := make([]bool, n)
	for _, c := range out.Tour {
		if c < 0 || int(c) >= n || seen[c] {
			t.Fatalf("tour is not a permutation of 0..%d", n-1)
		}
		seen[c] = true
	}
	return out
}

// The core e2e path: solve returns a valid tour; the identical repeat
// submission is a byte-identical cache hit that skips the queue.
func TestSolveEndToEndAndCacheHit(t *testing.T) {
	svc, ts := testServer(t, Options{})
	body := reqBody(t, 60, 1, SolveParams{MaxKicks: 10}, "")

	resp1, raw1 := post(t, ts.URL+"/v1/solve", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, raw1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submission X-Cache %q, want miss", got)
	}
	checkTour(t, raw1, 60)

	resp2, raw2 := post(t, ts.URL+"/v1/solve", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat submission X-Cache %q, want hit", got)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cached result not byte-identical:\n%s\n%s", raw1, raw2)
	}
	if hits, _, _ := svc.cache.stats(); hits != 1 {
		t.Fatalf("cache hits %d, want 1", hits)
	}
}

// A draining server must refuse repeat requests too: the drain check
// runs before the cache lookup, so a cached result is no way back in.
func TestDrainingRefusesCacheHits(t *testing.T) {
	svc, ts := testServer(t, Options{})
	body := reqBody(t, 60, 2, SolveParams{MaxKicks: 10}, "")
	if resp, raw := post(t, ts.URL+"/v1/solve", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	svc.pool.beginDrain()
	resp, raw := post(t, ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("repeat while draining: status %d (X-Cache %q), want 503: %s",
			resp.StatusCode, resp.Header.Get("X-Cache"), raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// Two uploads of the same geometry under different names and input
// forms (inline coords vs TSPLIB text) must share one cache entry: the
// hash covers content, not labels.
func TestCacheKeyIsContentAddressed(t *testing.T) {
	_, ts := testServer(t, Options{})
	coords := [][2]float64{{0, 0}, {10, 0}, {20, 0}, {20, 10}, {20, 20}, {10, 20}, {0, 20}, {0, 10}}
	params := SolveParams{MaxKicks: 5}
	inline, _ := json.Marshal(SolveRequest{Name: "ring-a", Coords: coords, Params: params})

	var tsplib strings.Builder
	tsplib.WriteString("NAME : ring-b\nTYPE : TSP\nDIMENSION : 8\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n")
	for i, c := range coords {
		fmt.Fprintf(&tsplib, "%d %g %g\n", i+1, c[0], c[1])
	}
	tsplib.WriteString("EOF\n")
	upload, _ := json.Marshal(SolveRequest{TSPLIB: tsplib.String(), Params: params})

	resp1, raw1 := post(t, ts.URL+"/v1/solve", inline)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("inline status %d: %s", resp1.StatusCode, raw1)
	}
	resp2, raw2 := post(t, ts.URL+"/v1/solve", upload)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d: %s", resp2.StatusCode, raw2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("TSPLIB upload of identical geometry X-Cache %q, want hit", got)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("content-addressed replay not byte-identical")
	}
}

func submitAsync(t *testing.T, url string, body []byte) JobStatus {
	t.Helper()
	resp, raw := post(t, url+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var js JobStatus
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	return js
}

func jobStatus(t *testing.T, url, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	return js
}

func waitState(t *testing.T, url, id string, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		js := jobStatus(t, url, id)
		for _, w := range want {
			if js.Status == w {
				return js
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return JobStatus{}
}

func cancelJob(t *testing.T, url, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// With one worker and a depth-1 queue, a third concurrent job must be
// shed with 429 + Retry-After — admission control fails fast instead of
// stacking goroutines.
func TestAdmissionControl429(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	slow := SolveParams{BudgetMS: 10_000}

	running := submitAsync(t, ts.URL, reqBody(t, 400, 1, slow, ""))
	waitState(t, ts.URL, running.JobID, stateRunning)
	queued := submitAsync(t, ts.URL, reqBody(t, 400, 2, slow, ""))

	resp, _ := post(t, ts.URL+"/v1/solve", reqBody(t, 400, 3, slow, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	cancelJob(t, ts.URL, running.JobID)
	cancelJob(t, ts.URL, queued.JobID)
	waitState(t, ts.URL, running.JobID, stateCancelled)
	waitState(t, ts.URL, queued.JobID, stateCancelled, stateDone)
}

// Workers must prefer the interactive class: with the single worker
// busy and one job queued per class, the interactive one runs first.
func TestInteractivePriority(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 2})
	slow := SolveParams{BudgetMS: 10_000}
	running := submitAsync(t, ts.URL, reqBody(t, 400, 1, slow, ""))
	waitState(t, ts.URL, running.JobID, stateRunning)

	batch := submitAsync(t, ts.URL, reqBody(t, 400, 2, SolveParams{MaxKicks: 5}, "batch"))
	inter := submitAsync(t, ts.URL, reqBody(t, 400, 3, SolveParams{BudgetMS: 2_000}, "interactive"))
	cancelJob(t, ts.URL, running.JobID)

	got := waitState(t, ts.URL, inter.JobID, stateRunning, stateDone)
	if got.Status == stateRunning {
		if bs := jobStatus(t, ts.URL, batch.JobID); bs.Status != stateQueued {
			t.Fatalf("batch job %q while interactive running, want queued", bs.Status)
		}
	}
	cancelJob(t, ts.URL, inter.JobID)
	waitState(t, ts.URL, batch.JobID, stateDone)
	waitState(t, ts.URL, inter.JobID, stateDone, stateCancelled)
}

// SSE must deliver progress events while the solve is still running,
// then a terminal "job" event.
func TestEventStreamMidSolve(t *testing.T) {
	_, ts := testServer(t, Options{})
	js := submitAsync(t, ts.URL, reqBody(t, 400, 4, SolveParams{BudgetMS: 5_000}, ""))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + js.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sawMidSolve := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if strings.Contains(line, `"kind"`) {
			// A progress event arrived over the live stream; the job must
			// still be running for it to count as mid-solve.
			if jobStatus(t, ts.URL, js.JobID).Status == stateRunning {
				sawMidSolve = true
				cancelJob(t, ts.URL, js.JobID)
			}
		}
		if strings.Contains(line, `"job_id"`) {
			break // terminal event
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawMidSolve {
		t.Fatalf("no progress event observed while the job was running")
	}
}

// The JSONL stream variant carries the same events as parseable lines.
func TestEventStreamJSONL(t *testing.T) {
	_, ts := testServer(t, Options{})
	js := submitAsync(t, ts.URL, reqBody(t, 200, 5, SolveParams{MaxKicks: 20, BudgetMS: 5_000}, ""))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + js.JobID + "/events?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatalf("empty JSONL stream")
	}
}

// A subscriber that disconnects mid-stream must not leak goroutines or
// stall the pool: later jobs still run to completion.
func TestStreamClientDisconnectNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		_, ts := testServer(t, Options{})
		js := submitAsync(t, ts.URL, reqBody(t, 400, 6, SolveParams{BudgetMS: 3_000}, ""))
		waitState(t, ts.URL, js.JobID, stateRunning)

		// Open the stream, read a little, then slam the connection shut.
		resp, err := http.Get(ts.URL + "/v1/jobs/" + js.JobID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		resp.Body.Read(buf)
		resp.Body.Close()
		cancelJob(t, ts.URL, js.JobID)
		waitState(t, ts.URL, js.JobID, stateCancelled, stateDone)

		// The pool must not be stalled by the vanished subscriber.
		resp2, raw := post(t, ts.URL+"/v1/solve", reqBody(t, 60, 7, SolveParams{MaxKicks: 5}, ""))
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("post-disconnect solve status %d: %s", resp2.StatusCode, raw)
		}
		checkTour(t, raw, 60)
	}()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// A cancelled job must free its worker: with one worker, three
// follow-up solves still complete with 200.
func TestCancelledJobFreesWorker(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	js := submitAsync(t, ts.URL, reqBody(t, 400, 8, SolveParams{BudgetMS: 10_000}, ""))
	waitState(t, ts.URL, js.JobID, stateRunning)
	cancelJob(t, ts.URL, js.JobID)
	waitState(t, ts.URL, js.JobID, stateCancelled)

	for seed := int64(20); seed < 23; seed++ {
		resp, raw := post(t, ts.URL+"/v1/solve", reqBody(t, 60, seed, SolveParams{MaxKicks: 5}, ""))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follow-up solve status %d: %s", resp.StatusCode, raw)
		}
	}
}

// Shutdown must stop admissions (503 + Retry-After) and drain queued
// jobs to completion within the deadline.
func TestGracefulShutdownDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc := New(ctx, Options{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	quick := SolveParams{MaxKicks: 5, BudgetMS: 5_000}
	a := submitAsync(t, ts.URL, reqBody(t, 200, 9, quick, ""))
	b := submitAsync(t, ts.URL, reqBody(t, 200, 10, quick, "batch"))

	done := make(chan error, 1)
	go func() {
		sctx, scancel := context.WithTimeout(ctx, 20*time.Second)
		defer scancel()
		done <- svc.Shutdown(sctx)
	}()

	// Admissions must close promptly once draining begins.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := post(t, ts.URL+"/v1/solve", reqBody(t, 60, 11, quick, ""))
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admissions still open after Shutdown began (status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []string{a.JobID, b.JobID} {
		if js := jobStatus(t, ts.URL, id); js.Status != stateDone {
			t.Fatalf("job %s state %q after drain, want done", id, js.Status)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, Options{MaxN: 500})
	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both forms", `{"coords":[[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7]],"tsplib":"NAME : x"}`},
		{"bad metric", `{"coords":[[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7]],"metric":"hyperbolic"}`},
		{"too small", `{"coords":[[0,0],[1,1],[2,2]]}`},
		{"bad priority", `{"coords":[[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7]],"priority":"turbo"}`},
		{"bad kick", `{"coords":[[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7]],"params":{"kick":"sideways"}}`},
		{"budget too large", `{"coords":[[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7]],"params":{"budget_ms":99999999}}`},
		{"unknown field", `{"coordz":[[0,0]]}`},
		{"malformed", `{`},
		// A short upload announcing an 80 GB matrix: rejected before allocating.
		{"short explicit section", `{"tsplib":"DIMENSION: 100000\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2 3\nEOF\n"}`},
	}
	for _, tc := range cases {
		resp, raw := post(t, ts.URL+"/v1/solve", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/solve", reqBody(t, 600, 1, SolveParams{}, "")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized instance: status %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %v %d, want 404", err, resp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	post(t, ts.URL+"/v1/solve", reqBody(t, 60, 30, SolveParams{MaxKicks: 5}, ""))
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Workers != 1 {
		t.Fatalf("stats %+v, want one completed job on one worker", st)
	}
}

// The params canonicalizer must treat spelled-out defaults and zero
// values identically, and distinct seeds as distinct keys.
func TestParamsCanonicalization(t *testing.T) {
	opt := Options{}.withDefaults()
	zero, err := SolveParams{}.normalize(opt)
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := SolveParams{Kick: "random-walk", Candidates: "auto", Seed: 1, BudgetMS: opt.DefaultBudget.Milliseconds()}.normalize(opt)
	if err != nil {
		t.Fatal(err)
	}
	if zero.canonical() != spelled.canonical() {
		t.Fatalf("defaults canonicalize differently:\n%s\n%s", zero.canonical(), spelled.canonical())
	}
	other, _ := SolveParams{Seed: 2}.normalize(opt)
	if zero.canonical() == other.canonical() {
		t.Fatalf("different seeds share a canonical key")
	}
}
