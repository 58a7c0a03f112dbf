package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into the program, recorded by the benchmark
// around its own calls. Spans of one operation share Op; Parent is the ID
// of the enclosing span (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (tr *tracer) begin(name string, parent, op int) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(tr.spans)
}

// end closes the span begin returned.
func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// add records a finished span with known bounds (a child the program
// reports, such as the server's own solve time).
func (tr *tracer) add(name string, parent, op int, start, end time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	tr.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
