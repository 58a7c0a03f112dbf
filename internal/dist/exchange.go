package dist

import (
	"math/rand"
	"slices"
	"sync"

	"distclk/internal/core"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// InboxCapacity is the default per-node inbox bound. The EA drains its
// inbox every iteration, so even aggressive broadcast rates stay far below
// this; if a node stalls, excess tours are dropped (stale tours are
// harmless — newer, better ones follow).
const InboxCapacity = 1024

// Exchange is one node's end of the tour exchange (paper §2.3, Fig. 1): a
// node broadcasts each improved tour, and once per EA iteration takes
// ALLRECEIVEDTOURS from its inbox. Every rule between the two lives here,
// so ChanNetwork, simnet and the TCP transport differ only in how a
// WireTour travels from one node's Encode to another node's Receive:
//   - peer choice: the topology neighbours, or under Gossip a sample of
//     the whole cluster;
//   - the per-stream delta codec state and its full-sent, delta-sent and
//     delta-gap events;
//   - Coalesce: an undrained tour from the same sender is replaced by the
//     better of the two;
//   - the inbox capacity bound and its msg-dropped event.
//
// Send events go to the sender's recorder, receive events to the
// receiver's. Peers and Encode are called by the node's broadcasting
// goroutine only; Receive, Drain and Forget may be called from any.
type Exchange struct {
	cfg      ExchangeConfig
	id       int
	capacity int
	rec      *obs.Recorder
	sample   []int // the last gossip sample, reused by the next

	mu    sync.Mutex
	inbox []core.Incoming
	encs  map[int]*DeltaEncoder // stream to each peer
	decs  map[int]*DeltaDecoder // stream from each peer
}

// Delivery is what Receive did with a message.
type Delivery int

const (
	// Queued: the tour waits in the inbox for the next Drain.
	Queued Delivery = iota
	// Coalesced: an undrained tour from the same sender was there; the
	// better of the two stays queued.
	Coalesced
	// Overflow: the inbox was full and the tour was dropped.
	Overflow
	// Gap: a delta whose base generation this endpoint does not hold
	// (loss, reorder, duplicate or restart upstream), or a corrupt one;
	// the stream heals at the sender's next full tour.
	Gap
)

// NewExchange returns node id's endpoint, with an inbox of at most
// capacity tours. rec may be nil.
func NewExchange(id int, cfg ExchangeConfig, capacity int, rec *obs.Recorder) *Exchange {
	return &Exchange{
		cfg:      cfg,
		id:       id,
		capacity: capacity,
		rec:      rec,
		encs:     map[int]*DeltaEncoder{},
		decs:     map[int]*DeltaDecoder{},
	}
}

// Peers returns the peers of one broadcast: neighbors, or under Gossip
// GossipFanout distinct nodes of [0, n) other than this one, drawn from
// rng. A gossip sample is only valid until the next call.
func (x *Exchange) Peers(neighbors []int, n int, rng *rand.Rand) []int {
	if !x.cfg.Gossip {
		return neighbors
	}
	k := min(x.cfg.GossipFanout(), n-1)
	x.sample = x.sample[:0]
	for len(x.sample) < k {
		p := rng.Intn(n - 1)
		if p >= x.id {
			p++
		}
		if !slices.Contains(x.sample, p) {
			x.sample = append(x.sample, p)
		}
	}
	return x.sample
}

// Encode returns the message that carries (t, length) to peer to; the
// caller may go on mutating t. Under Delta it is the next message of the
// stream to that peer, recorded as a full or a delta send. Otherwise it is
// a copy of the whole tour at generation 0, which no receiver decodes.
func (x *Exchange) Encode(to int, t tsp.Tour, length int64) WireTour {
	if !x.cfg.Delta {
		return WireTour{From: x.id, Length: length, N: len(t), Full: true, Tour: t.Clone()}
	}
	x.mu.Lock()
	enc := x.encs[to]
	if enc == nil {
		enc = &DeltaEncoder{}
		x.encs[to] = enc
	}
	w := enc.Encode(x.id, t, length, x.cfg.Keyframe())
	x.mu.Unlock()
	if w.Full {
		x.rec.FullSent(int64(w.WireBytes()), to)
	} else {
		x.rec.DeltaSent(int64(w.WireBytes()), to)
	}
	return w
}

// Receive takes one message off the wire. A generation-stamped message is
// reconstructed on the stream from its sender; then the tour is queued,
// coalesced with the sender's undrained one, or dropped on a full inbox.
// The reconstructed tour is returned too (nil on a Gap) so a transport can
// check it against what was sent.
func (x *Exchange) Receive(w WireTour) (Delivery, tsp.Tour) {
	x.mu.Lock()
	defer x.mu.Unlock()
	tour := w.Tour
	if !w.Full || w.Gen != 0 {
		dec := x.decs[w.From]
		if dec == nil {
			dec = &DeltaDecoder{}
			x.decs[w.From] = dec
		}
		var ok bool
		if tour, ok = dec.Decode(w); !ok {
			x.rec.DeltaGap(w.From)
			return Gap, nil
		}
	}
	msg := core.Incoming{From: w.From, Tour: tour, Length: w.Length}
	if x.cfg.Coalesce {
		for i := range x.inbox {
			if x.inbox[i].From != msg.From {
				continue
			}
			if msg.Length < x.inbox[i].Length {
				x.inbox[i] = msg
			}
			x.rec.CoalescedMsg(x.inbox[i].Length, msg.From)
			return Coalesced, tour
		}
	}
	if len(x.inbox) >= x.capacity {
		x.rec.MsgDropped(msg.Length, msg.From)
		return Overflow, tour
	}
	x.inbox = append(x.inbox, msg)
	return Queued, tour
}

// Drain empties the inbox: the paper's ALLRECEIVEDTOURS.
func (x *Exchange) Drain() []core.Incoming {
	x.mu.Lock()
	out := x.inbox
	x.inbox = nil
	x.mu.Unlock()
	return out
}

// Restart models a crash and restart of this node: the inbox and the
// codec state of every stream, both ways, are lost, so each stream
// resumes with a full tour. Each outgoing stream keeps counting its
// generations, which stamps the new incarnation into the stream: a peer
// that missed the new incarnation's first full tour still holds an old
// generation, so the next delta gaps there instead of being applied to a
// tour of the old incarnation.
func (x *Exchange) Restart() {
	x.mu.Lock()
	x.inbox = nil
	clear(x.decs)
	for _, enc := range x.encs {
		enc.last = nil
	}
	x.mu.Unlock()
}

// Forget drops the codec state of both streams with peer, so they restart
// from a full tour — for a new connection to a peer whose old state went
// with the old one.
func (x *Exchange) Forget(peer int) {
	x.mu.Lock()
	delete(x.encs, peer)
	delete(x.decs, peer)
	x.mu.Unlock()
}
