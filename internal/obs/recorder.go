package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// CounterSnapshot is one node's counters: the recorder's live state and,
// copied out, a point-in-time snapshot safe to serialize. It is the one
// declaration of the counter vocabulary; its JSON tags are what -metrics
// serves.
type CounterSnapshot struct {
	Node          int   `json:"node"`                  // node id; worker id in a parallel plain-CLK solve
	BestLength    int64 `json:"best_length"`           // lowest published length, 0 if none
	Kicks         int64 `json:"kicks"`                 // double-bridge kicks attempted
	KickAccepts   int64 `json:"kick_accepts"`          // kicks whose re-optimized tour was kept
	Improvements  int64 `json:"improvements"`          // strict LK chain improvements
	Perturbations int64 `json:"perturbations"`         // double bridges applied as EA perturbation
	Restarts      int64 `json:"restarts"`              // restart-rule firings (stagnation > c_r)
	Broadcasts    int64 `json:"broadcasts_sent"`       // tours broadcast to neighbours
	Received      int64 `json:"broadcasts_received"`   // tours drained from the inbox
	Accepted      int64 `json:"broadcasts_accepted"`   // received tours adopted as node best
	MsgDrops      int64 `json:"msg_drops"`             // tours lost in transit to this node
	Iterations    int64 `json:"iterations,omitempty"`  // EA iterations (Figure 1 loop passes)
	Merges        int64 `json:"merges,omitempty"`      // in-node elite merge passes completed
	Adoptions     int64 `json:"adoptions,omitempty"`   // round-best adoptions by workers behind it
	FullSends     int64 `json:"full_sends,omitempty"`  // whole tours sent (per peer)
	DeltaSends    int64 `json:"delta_sends,omitempty"` // segment diffs sent (per peer)
	DeltaGaps     int64 `json:"delta_gaps,omitempty"`  // deltas discarded for a generation gap
	Coalesced     int64 `json:"coalesced,omitempty"`   // queued tours merged away before drain
	WireBytes     int64 `json:"wire_bytes,omitempty"`  // payload bytes this node put on the wire
}

// Recorder is one node's handle into the observability layer and the one
// place its counts are kept: Record stamps an event with the node id and
// the shared run clock, bumps the counters its kind maps to, and tracks
// the node's best length. All methods are safe on a nil receiver — a plain
// solver runs unobserved at the cost of a nil check — and on concurrent
// callers: the transport records drops on the receiver's recorder from the
// sender's goroutine, and progress samplers read the counts mid-search.
type Recorder struct {
	start time.Time
	clock func() time.Duration // overrides wall time when set (virtual clocks)
	sink  Sink

	mu sync.Mutex
	c  CounterSnapshot // c.Node is fixed at construction; the rest under mu
}

// NewRecorder builds a recorder for `node` emitting into sink (nil means
// discard). The run clock starts now; see Observer for recorders sharing
// one clock.
func NewRecorder(node int, sink Sink) *Recorder {
	if sink == nil {
		sink = Nop
	}
	return &Recorder{start: time.Now(), sink: sink, c: CounterSnapshot{Node: node}}
}

func (r *Recorder) now() time.Duration {
	if r.clock != nil {
		return r.clock()
	}
	return time.Since(r.start)
}

func (r *Recorder) emit(k Kind, value int64, from int) {
	r.sink.Emit(Event{
		At:    r.now(),
		Node:  r.c.Node,
		Kind:  k,
		Value: value,
		From:  from,
	})
}

// Record records one event of kind k on this node: it bumps the counters
// the kind maps to, lowers the best length for the kinds that publish one
// (see CounterSnapshot.count), and emits the event. value carries the
// tour length, perturbation count or level, wire bytes or iteration
// ordinal the kind documents; from is the peer (the sender of received
// tours, the receiver of sent ones), -1 when none applies.
func (r *Recorder) Record(k Kind, value int64, from int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.c.count(k, value)
	r.mu.Unlock()
	r.emit(k, value, from)
}

// SetBest publishes the node's best-so-far length without emitting an
// event (initial tours, adopted incumbents).
func (r *Recorder) SetBest(length int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.c.lowerBest(length)
	r.mu.Unlock()
}

// Best returns the node's best published length, 0 if none yet.
func (r *Recorder) Best() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c.BestLength
}

// Elapsed returns time on the recorder's run clock (wall time since start,
// or the virtual clock's reading for virtual observers).
func (r *Recorder) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return r.now()
}

// Snapshot copies the counters.
func (r *Recorder) Snapshot() CounterSnapshot {
	if r == nil {
		return CounterSnapshot{Node: -1}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c
}

// Observer owns the observability of one whole solve: a recorder per node,
// all on a shared run clock, EA-level events funnelled into one collector
// for post-run analysis, plus an optional extra sink receiving every event
// unfiltered (the solve service's event streams, live listeners).
type Observer struct {
	start     time.Time
	clock     func() time.Duration // virtual clock; nil = wall time
	sink      Sink                 // shared recorder sink: EA-filtered collector + extra
	collector *MemorySink
	recs      []*Recorder
}

// NewObserver builds an observer for `nodes` recorders. extra may be nil.
func NewObserver(nodes int, extra Sink) *Observer {
	return newObserver(nodes, extra, nil)
}

// NewVirtualObserver builds an observer whose recorders stamp events with
// the supplied clock instead of wall time — the simnet event loop passes
// its virtual clock so event logs replay byte-identically across runs.
func NewVirtualObserver(nodes int, extra Sink, clock func() time.Duration) *Observer {
	return newObserver(nodes, extra, clock)
}

func newObserver(nodes int, extra Sink, clock func() time.Duration) *Observer {
	o := &Observer{
		start:     time.Now(),
		clock:     clock,
		collector: NewMemorySink(),
		recs:      make([]*Recorder, nodes),
	}
	o.sink = Multi(Filter(o.collector, Kind.EALevel), extra)
	for i := range o.recs {
		o.recs[i] = &Recorder{start: o.start, clock: clock, sink: o.sink, c: CounterSnapshot{Node: i}}
	}
	return o
}

// Recorder returns node i's recorder.
func (o *Observer) Recorder(i int) *Recorder {
	if o == nil {
		return nil
	}
	return o.recs[i]
}

// Nodes returns the number of recorders.
func (o *Observer) Nodes() int {
	if o == nil {
		return 0
	}
	return len(o.recs)
}

// Events returns all collected EA-level events ordered by run-clock offset.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	events := o.collector.Events()
	SortEvents(events)
	return events
}

// Counters returns a per-node counter snapshot.
func (o *Observer) Counters() []CounterSnapshot {
	if o == nil {
		return nil
	}
	out := make([]CounterSnapshot, len(o.recs))
	for i, r := range o.recs {
		out[i] = r.Snapshot()
	}
	return out
}

// BestLength returns the lowest published length across nodes, 0 if none.
func (o *Observer) BestLength() int64 {
	if o == nil {
		return 0
	}
	var best int64
	for _, r := range o.recs {
		if l := r.Best(); l != 0 && (best == 0 || l < best) {
			best = l
		}
	}
	return best
}

// Elapsed returns time on the observer's run clock (wall time since start,
// or the virtual clock's reading).
func (o *Observer) Elapsed() time.Duration {
	if o == nil {
		return 0
	}
	if o.clock != nil {
		return o.clock()
	}
	return time.Since(o.start)
}

// Snapshot records a whole-solve progress observation (Node = -1) into the
// collector and returns the best length it captured.
func (o *Observer) Snapshot() int64 {
	if o == nil {
		return 0
	}
	best := o.BestLength()
	o.collector.Emit(Event{
		At:    o.Elapsed(),
		Node:  -1,
		Kind:  KindSnapshot,
		Value: best,
		From:  -1,
	})
	return best
}

// Record emits a network- or harness-scoped event (partitions, crashes,
// deliveries) through the observer's shared sink, stamped with its clock.
// Use node = -1 for whole-network scope and from = -1 when no peer applies.
func (o *Observer) Record(k Kind, node int, value int64, from int) {
	if o == nil {
		return
	}
	o.sink.Emit(Event{
		At:    o.Elapsed(),
		Node:  node,
		Kind:  k,
		Value: value,
		From:  from,
	})
}

// MetricsHandler serves snap() as indented JSON — an expvar-style
// endpoint for long-running binaries.
func MetricsHandler(snap func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap())
	})
}
