package obs

import (
	"sort"
	"sync"
	"time"
)

// Kind tags an event with the decision point that produced it.
type Kind uint8

const (
	// KindKickAccepted: a double-bridge kick's re-optimized tour was
	// accepted as the chain incumbent (ties included). Value = new length.
	KindKickAccepted Kind = iota
	// KindKickReverted: the kick made the tour longer; the working tour
	// reverted to the incumbent.
	KindKickReverted
	// KindLKImprove: chained LK strictly improved its incumbent.
	// Value = new length. For a plain CLK run this is a global improvement;
	// inside the EA it is relative to the perturbed restart point.
	KindLKImprove
	// KindImprove: a node's own search produced a new global best tour
	// (the EA's SELECTBESTTOUR chose the local result). Value = length.
	KindImprove
	// KindImproveReceived: a tour received from a neighbour became the
	// node's best (a broadcast was accepted). Value = length, From = sender.
	KindImproveReceived
	// KindPerturb: the variable-strength perturbation was applied.
	// Value = NumPerturbations (double-bridge count).
	KindPerturb
	// KindPerturbLevel: the perturbation strength changed. Value = level.
	KindPerturbLevel
	// KindRestart: stagnation exceeded c_r; the incumbent was discarded and
	// rebuilt from scratch.
	KindRestart
	// KindBroadcastSent: the node broadcast its new best to its topology
	// neighbours. Value = length.
	KindBroadcastSent
	// KindBroadcastReceived: a tour arrived from a neighbour. Value =
	// length, From = sender.
	KindBroadcastReceived
	// KindOptimum: the target length was reached locally.
	KindOptimum
	// KindSnapshot: a periodic progress observation. Value = best length so
	// far; Node is -1 (whole-solve scope).
	KindSnapshot
	// KindMsgDropped: a tour in transit was lost — full inbox, link loss,
	// partition, or dead receiver. Node = intended receiver, From = sender,
	// Value = tour length.
	KindMsgDropped
	// KindMsgDelivered: the network placed a tour into a node's inbox
	// (link-level; distinct from KindBroadcastReceived, which fires when the
	// node drains it). Node = receiver, From = sender, Value = length.
	KindMsgDelivered
	// KindMsgDuplicated: a link duplicated a frame in transit. Node =
	// receiver, From = sender, Value = length.
	KindMsgDuplicated
	// KindPartitionStart: a network partition activated; traffic between
	// groups is dropped until it heals. Node = -1, Value = group count.
	KindPartitionStart
	// KindPartitionHeal: the partition healed. Node = -1.
	KindPartitionHeal
	// KindNodeCrash: a node crashed — it stops working and its queued inbox
	// is lost. Node = the crashed node.
	KindNodeCrash
	// KindNodeRestart: a crashed node came back. Node = restarted node,
	// Value = 1 when it restarted with freshly reconstructed search state.
	KindNodeRestart
	// KindMerge: an in-node elite merge pass finished — the union-graph
	// restricted LK fused the elite pool. Node = the worker group's recorder
	// (worker 0), Value = resulting tour length (recorded whether or not it
	// improved on the round's best).
	KindMerge
	// KindAdopt: a worker behind the round's best tour restarted from it
	// at the barrier. Node = adopting worker, From = the round's winning
	// worker (-1 = a merged tour), Value = adopted length.
	KindAdopt
	// KindFullSent: a whole tour went on the wire to one peer — first
	// contact, keyframe cadence, or a delta that would not have been
	// smaller. Node = sender, From = receiver, Value = wire bytes.
	KindFullSent
	// KindDeltaSent: only the changed segments of a tour went on the wire
	// to one peer. Node = sender, From = receiver, Value = wire bytes.
	KindDeltaSent
	// KindDeltaGap: a delta arrived whose base generation did not match
	// the receiver's reconstruction state (loss, reorder, or restart); it
	// was discarded and the stream heals at the sender's next full tour.
	// Node = receiver, From = sender.
	KindDeltaGap
	// KindCoalesced: an undrained queued tour was merged with a newer one
	// from the same sender; only the better survived. Node = receiver,
	// From = sender, Value = surviving length.
	KindCoalesced
	// KindLengthMismatch: a received tour that would have won
	// SELECTBESTTOUR was dropped because its recomputed length differs
	// from the sender's claim (or it is not a permutation). Node =
	// receiver, From = sender, Value = claimed length.
	KindLengthMismatch
	// KindIteration: a node began one EA iteration (one Figure 1 loop
	// pass). Value = the iteration's ordinal, from 1.
	KindIteration

	numKinds
)

var kindNames = [numKinds]string{
	"kick-accepted",
	"kick-reverted",
	"lk-improve",
	"improve",
	"improve-received",
	"perturb",
	"perturb-level",
	"restart",
	"broadcast-sent",
	"broadcast-received",
	"optimum",
	"snapshot",
	"msg-dropped",
	"msg-delivered",
	"msg-duplicated",
	"partition-start",
	"partition-heal",
	"node-crash",
	"node-restart",
	"merge",
	"adopt",
	"full-sent",
	"delta-sent",
	"delta-gap",
	"coalesced",
	"length-mismatch",
	"iteration",
}

// count applies one event of kind k with the given value to the counters:
// the one rule for which counter each kind bumps and which kinds publish
// a best length. Kinds it does not name are evented only.
func (c *CounterSnapshot) count(k Kind, value int64) {
	switch k {
	case KindKickAccepted:
		c.Kicks++
		c.KickAccepts++
	case KindKickReverted:
		c.Kicks++
	case KindLKImprove:
		c.Improvements++
		c.lowerBest(value)
	case KindImprove, KindOptimum:
		c.lowerBest(value)
	case KindImproveReceived:
		c.Accepted++
		c.lowerBest(value)
	case KindPerturb:
		c.Perturbations += value
	case KindRestart:
		c.Restarts++
	case KindBroadcastSent:
		c.Broadcasts++
	case KindBroadcastReceived:
		c.Received++
	case KindMsgDropped:
		c.MsgDrops++
	case KindMerge:
		c.Merges++
	case KindAdopt:
		c.Adoptions++
	case KindFullSent:
		c.FullSends++
		c.WireBytes += value
	case KindDeltaSent:
		c.DeltaSends++
		c.WireBytes += value
	case KindDeltaGap:
		c.DeltaGaps++
	case KindCoalesced:
		c.Coalesced++
	case KindIteration:
		c.Iterations++
	}
}

// lowerBest lowers the published best length (0 = none yet).
func (c *CounterSnapshot) lowerBest(length int64) {
	if c.BestLength == 0 || length < c.BestLength {
		c.BestLength = length
	}
}

// String names the kind; these names are the event-stream vocabulary.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// EALevel reports whether the kind is a low-frequency EA decision point.
// Kick-level kinds fire once per kick or EA iteration (potentially
// millions per run) and are excluded from unbounded in-memory collection;
// their totals live in the recorder's counters.
func (k Kind) EALevel() bool {
	switch k {
	case KindKickAccepted, KindKickReverted, KindLKImprove, KindPerturb,
		KindIteration, KindFullSent, KindDeltaSent, KindCoalesced:
		// The send/coalesce kinds fire once per peer per broadcast — at
		// 1024 nodes that is far too chatty for unbounded collection;
		// their totals live in the recorder's counters.
		return false
	}
	return true
}

// Event is one observation: node `Node` hit decision point `Kind` at
// offset `At` from the run start. Value carries the tour length or
// perturbation level; From is the sending node for received-tour events
// and -1 otherwise.
type Event struct {
	At    time.Duration
	Node  int
	Kind  Kind
	Value int64
	From  int
}

// Sink consumes events. Implementations must be safe for concurrent Emit
// calls: recorders of all cluster nodes share one sink.
type Sink interface {
	Emit(Event)
}

type nopSink struct{}

func (nopSink) Emit(Event) {}

// Nop discards every event.
var Nop Sink = nopSink{}

// SinkFunc adapts a function to the Sink interface. The function must be
// safe for concurrent calls.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(e Event) { f(e) }

// MemorySink retains every event, for tests and post-run analysis.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit appends the event.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the collected events in emission order.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Len reports how many events were collected.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

type filterSink struct {
	next Sink
	keep func(Kind) bool
}

func (f filterSink) Emit(e Event) {
	if f.keep(e.Kind) {
		f.next.Emit(e)
	}
}

// Filter forwards only events whose kind satisfies keep.
func Filter(next Sink, keep func(Kind) bool) Sink {
	if next == nil {
		return Nop
	}
	return filterSink{next: next, keep: keep}
}

// Multi fans every event out to all non-nil sinks.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil && s != Nop {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// SortEvents orders events by offset (stable, so same-timestamp events
// keep emission order).
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
}
