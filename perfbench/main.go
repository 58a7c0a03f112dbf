// Command perfbench is the repository's benchmark. One invocation runs one
// named workload from a seed, checks every answer, and prints one JSON
// line: with --trace 0 the end-to-end metrics, with --trace 1 the
// per-layer metrics, from spans around the calls into each layer and from
// replay rungs on the workload's inputs. Every workload prints every name
// of each set.
// See README.md for the workloads, the metrics and how they were sized.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// outcome is what one pass of a workload produced.
type outcome struct {
	attempted, failed int
	errs              []string
	runS              float64 // wall time of the timed phase
	e2e               metrics // end-to-end metrics (timed phase, any pass)
	layer             metrics // per-layer metrics (traced pass only)
	// detail holds the traced pass's figures of layers that only this
	// workload runs; they go to standard error, not into the result.
	detail metrics
	// det holds the values that must repeat exactly for a seed.
	det map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, layer: metrics{}, detail: metrics{}, det: map[string]float64{}}
}

// fail counts one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// workload runs one pass; tr is nil on the untraced pass.
type workload func(seed int64, seconds int, tr *tracer) *outcome

var workloads = map[string]workload{
	"clk-chain-e3k": runChain,
	"sim-fl2k-64":   runSim,
	"serve-mix":     runServe,
}

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "nominal run length; sizes the fixed work of the run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for determinism records and span dumps")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	var o *outcome
	if *trace == 0 {
		o = w(*seed, *seconds, nil)
	} else {
		o = tracedRun(w, *seed, *seconds, *name, *out)
	}
	if code, err := codeKey(); err != nil {
		o.fail("determinism guard: %v", err)
	} else if err := checkDeterminism(*out, *name, *seed, *seconds, code, o.det); err != nil {
		o.fail("determinism guard: %v", err)
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	if len(o.detail) > 0 {
		if b, err := json.Marshal(o.detail); err == nil {
			fmt.Fprintln(os.Stderr, "perfbench: detail:", string(b))
		}
	}
	r := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.e2e}
	if *trace == 1 {
		r.Metrics = o.layer
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tracedRun runs the workload untraced and then traced, reports the
// per-layer metrics of the traced pass with the span self times by role
// and the tracing overhead (traced minus untraced run_s), and dumps the
// spans. Self times per span name go to the detail.
func tracedRun(w workload, seed int64, seconds int, name, out string) *outcome {
	base := w(seed, seconds, nil)
	tr := newTracer()
	o := w(seed, seconds, tr)
	o.attempted += base.attempted
	o.failed += base.failed
	o.errs = append(o.errs, base.errs...)
	for k, v := range base.det {
		if o.det[k] != v {
			o.fail("%s differs between the untraced and traced pass: %v vs %v", k, v, o.det[k])
		}
	}
	roles := map[string]float64{}
	for span, d := range selfTimes(tr.spans) {
		o.detail.set("self_ms."+span, ms(d), "ms")
		roles[spanRoles[span]] += ms(d)
	}
	for _, role := range []string{"setup", "op", "bench", "probe"} {
		o.layer.set("self_ms."+role, roles[role], "ms")
	}
	over := o.runS - base.runS
	o.layer.set("trace.overhead_s", over, "s")
	o.layer.set("trace.overhead_pct", 100*over/base.runS, "%")
	o.layer.set("trace.spans", float64(len(tr.spans)), "count")
	if err := os.MkdirAll(out, 0o755); err == nil {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-s%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	return o
}

// spanRoles groups the span names of all workloads into the roles the
// per-layer self times are reported by: set-up calls into the program,
// the timed operations (with the server's solve inside a request), the
// benchmark's own driving code, and the probe.
var spanRoles = map[string]string{
	"neighbor.Build": "setup", "clk.New": "setup", "core.NewNode": "setup", "serve.start": "setup",
	"clk.KickOnce": "op", "simnet.Run": "op", "http.request": "op", "serve.solve": "op",
	"chain": "bench", "sim": "bench", "serve": "bench",
	"probe": "probe",
}

// codeKey identifies the code being measured: a digest of this binary,
// which links the program in. run.sh builds with -trimpath and
// -buildvcs=false, so the same sources give the same key in any checkout,
// and a change to the program or the benchmark gives a new one.
func codeKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("reading the benchmark binary: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("reading the benchmark binary: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// detPath is where the deterministic values of one workload, seed, length
// and build are recorded.
func detPath(dir, name string, seed int64, seconds int, code string) string {
	return filepath.Join(dir, "determinism", fmt.Sprintf("%s-s%d-t%d-%s.json", name, seed, seconds, code))
}

// checkDeterminism compares the run's deterministic values with the record
// of an earlier run of the same workload, seed, length and code, and
// writes the record when there is none yet. Host noise can move times but
// never these values; a mismatch means the program itself is
// nondeterministic. A different build is compared only with its own runs,
// so a change that moves the search path starts a fresh record.
func checkDeterminism(dir, name string, seed int64, seconds int, code string, det map[string]float64) error {
	if err := os.MkdirAll(filepath.Join(dir, "determinism"), 0o755); err != nil {
		return err
	}
	path := detPath(dir, name, seed, seconds, code)
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("reading %s: %v", path, err)
		}
		var diffs []string
		for k, v := range det {
			if pv, ok := prev[k]; ok && pv != v {
				diffs = append(diffs, fmt.Sprintf("%s was %v, now %v", k, pv, v))
			}
		}
		sort.Strings(diffs)
		if len(diffs) > 0 {
			return fmt.Errorf("seed %d: %s", seed, strings.Join(diffs, "; "))
		}
		for k, v := range det {
			prev[k] = v
		}
		det = prev
	}
	b, err := json.Marshal(det)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timeReps runs f reps times and returns each run's duration in seconds.
func timeReps(reps int, f func()) []float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = time.Since(t).Seconds()
	}
	return ds
}

// medianSeconds runs f reps times and returns the median duration in
// seconds.
func medianSeconds(reps int, f func()) float64 { return median(timeReps(reps, f)) }
