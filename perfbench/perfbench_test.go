package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

func TestGeneratorsStablePerSeedAndDifferAcrossSeeds(t *testing.T) {
	for _, f := range []family{uniform, clustered, drill} {
		a := generate(f, 500, rngFor(7, 1))
		b := generate(f, 500, rngFor(7, 1))
		c := generate(f, 500, rngFor(8, 1))
		if tsplib("x", a) != tsplib("x", b) {
			t.Errorf("%v: same seed gave different inputs", f)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%v: seeds 7 and 8 gave the same inputs", f)
		}
	}
	i1, s1 := serveInputs(3, 12)
	i2, s2 := serveInputs(3, 12)
	i3, _ := serveInputs(4, 12)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("serve sequence is not stable per seed")
	}
	for k := range i1 {
		if !bytes.Equal(i1[k].body, i2[k].body) {
			t.Errorf("serve request %d is not byte-stable per seed", k)
		}
	}
	if bytes.Equal(i1[0].body, i3[0].body) {
		t.Error("serve inputs do not differ across seeds")
	}
}

// TestFamiliesSteerAuto pins the property serve-mix relies on: each input
// family makes neighbor.Auto pick a different strategy.
func TestFamiliesSteerAuto(t *testing.T) {
	want := map[family]string{uniform: "delaunay", clustered: "quadrant", drill: "delaunay+relax"}
	for f, w := range want {
		for _, n := range []int{1000, 1500, 2000} {
			ch := neighbor.Auto(tsp.Describe(toInstance("x", generate(f, n, rngFor(int64(n), 1)))))
			got := ch.Strategy
			if ch.RelaxDepth > 0 {
				got += "+relax"
			}
			if got != w {
				t.Errorf("%v n=%d: auto picked %s, want %s", f, n, got, w)
			}
		}
	}
}

func TestServeSequenceRepeatsOnlyAnsweredInstances(t *testing.T) {
	insts, seq := serveInputs(1, 40)
	first := map[int]int{}
	misses, uploads := 0, 0
	for i, it := range seq {
		if !it.repeat {
			first[it.inst] = i
			misses++
			if bytes.Contains(insts[it.inst].body, []byte(`"tsplib"`)) {
				uploads++
			}
			continue
		}
		p, ok := first[it.inst]
		if !ok || i-p < serveRepeatLag {
			t.Fatalf("repeat at %d of instance %d does not trail its miss by %d", i, it.inst, serveRepeatLag)
		}
	}
	if misses != 40 || uploads != 10 {
		t.Errorf("misses %d uploads %d, want 40 and 10", misses, uploads)
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that every workload prints
// exactly the names BENCHMARK.json declares, each in its declared unit:
// all end-to-end metrics on the untraced run and all per-layer metrics on
// the traced run. None of them may be zero.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(workload, kind string, declared []struct{ Name, Unit string }, printed metrics) {
		want := map[string]string{}
		for _, x := range declared {
			want[x.Name] = x.Unit
			m, ok := printed[x.Name]
			switch {
			case !ok:
				t.Errorf("%s does not print %s %s", workload, kind, x.Name)
			case m.Unit != x.Unit:
				t.Errorf("%s prints %s %s in [%s], BENCHMARK.json has [%s]", workload, kind, x.Name, m.Unit, x.Unit)
			case m.Value == 0:
				t.Errorf("%s prints %s %s as 0", workload, kind, x.Name)
			}
		}
		for k := range printed {
			if _, ok := want[k]; !ok {
				t.Errorf("%s prints %s %s, which BENCHMARK.json does not declare", workload, kind, k)
			}
		}
	}
	for _, name := range workloadNames() {
		o := tracedRun(workloads[name], 1, 1, name, t.TempDir())
		check(name, "end-to-end", spec.EndToEnd, o.e2e)
		check(name, "per-layer", spec.PerLayer, o.layer)
	}
}

func TestServeClientCountsRejectionsAsFailed(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
		}))
		insts, _ := serveInputs(1, 8)
		seq := []serveItem{{inst: 0}}
		replies := drive(ts.Client(), ts.URL, insts, seq, 1, 0, nil, 0)
		ts.Close()
		if _, err := judge(insts, replies[0]); err == nil {
			t.Errorf("status %d was not counted as failed", code)
		}
	}
	// A repeat must be a byte-identical hit.
	insts, _ := serveInputs(1, 8)
	in := insts[0]
	in.answer = []byte(`{"a":1}`)
	ok := reply{item: serveItem{inst: 0, repeat: true}, status: 200, cache: "hit", body: []byte(`{"a":1}`)}
	if _, err := judge(insts, ok); err != nil {
		t.Errorf("identical hit judged failed: %v", err)
	}
	for _, bad := range []reply{
		{item: ok.item, status: 200, cache: "miss", body: ok.body},
		{item: ok.item, status: 200, cache: "hit", body: []byte(`{"a":2}`)},
	} {
		if _, err := judge(insts, bad); err == nil {
			t.Errorf("bad repeat %+v judged ok", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	d := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * d},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * d, End: 30 * d},
		{ID: 3, Parent: 1, Name: "a", Start: 20 * d, End: 50 * d},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90 * d, End: 120 * d}, // runs past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25 * d, End: 35 * d},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100*d - 40*d - 10*d, // children cover [10,50] and [90,100]
		"a":    20*d + 30*d - 10*d,
		"b":    30 * d,
		"c":    10 * d,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestDeterminismRecordKeyedByCode checks that the guard compares a run
// only with earlier runs of the same build: a different code key starts
// its own record, while the same key must repeat its values.
func TestDeterminismRecordKeyedByCode(t *testing.T) {
	dir := t.TempDir()
	if detPath(dir, "w", 1, 30, "aaaa") == detPath(dir, "w", 1, 30, "bbbb") {
		t.Fatal("two code keys share a record")
	}
	if err := checkDeterminism(dir, "w", 1, 30, "aaaa", map[string]float64{"tour_len": 10}); err != nil {
		t.Fatal(err)
	}
	if err := checkDeterminism(dir, "w", 1, 30, "bbbb", map[string]float64{"tour_len": 11}); err != nil {
		t.Errorf("changed code compared with the old record: %v", err)
	}
	if err := checkDeterminism(dir, "w", 1, 30, "aaaa", map[string]float64{"tour_len": 10}); err != nil {
		t.Errorf("same code and values rejected: %v", err)
	}
	if err := checkDeterminism(dir, "w", 1, 30, "aaaa", map[string]float64{"tour_len": 12}); err == nil {
		t.Error("same code with a different value was not reported")
	}
}

func TestCheckTour(t *testing.T) {
	pts := []point{{0, 0}, {3, 0}, {3, 4}, {0, 4}}
	if err := checkTour(pts, []int32{0, 1, 2, 3}, 14); err != nil {
		t.Error(err)
	}
	for _, bad := range []struct {
		tour []int32
		l    int64
	}{{[]int32{0, 1, 2, 3}, 15}, {[]int32{0, 1, 1, 3}, 14}, {[]int32{0, 1, 2}, 10}, {[]int32{0, 1, 2, 4}, 14}} {
		if checkTour(pts, bad.tour, bad.l) == nil {
			t.Errorf("tour %v length %d accepted", bad.tour, bad.l)
		}
	}
}
