package simnet

import (
	"math"
	"math/rand"
	"time"

	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// LatencyKind selects a per-message latency distribution.
type LatencyKind int

const (
	// LatencyFixed delivers every message after exactly Base.
	LatencyFixed LatencyKind = iota
	// LatencyUniform draws uniformly from [Base, Base+Spread).
	LatencyUniform
	// LatencyLognormal draws Base·exp(σ·N(0,1)) — median Base with the
	// heavy right tail measured on real WANs.
	LatencyLognormal
)

// Latency is a samplable one-way link delay.
type Latency struct {
	Kind   LatencyKind
	Base   time.Duration // fixed value / uniform lower bound / lognormal median
	Spread time.Duration // uniform width (ignored otherwise)
	Sigma  float64       // lognormal shape; <= 0 means 0.5
}

func (l Latency) sample(rng *rand.Rand) time.Duration {
	switch l.Kind {
	case LatencyUniform:
		if l.Spread <= 0 {
			return l.Base
		}
		return l.Base + time.Duration(rng.Int63n(int64(l.Spread)))
	case LatencyLognormal:
		sigma := l.Sigma
		if sigma <= 0 {
			sigma = 0.5
		}
		return time.Duration(float64(l.Base) * math.Exp(rng.NormFloat64()*sigma))
	default:
		return l.Base
	}
}

// Link is the fault model applied to every directed overlay edge.
type Link struct {
	// Latency delays each delivery.
	Latency Latency
	// DropProb loses each copy independently.
	DropProb float64
	// DupProb delivers a second copy of the frame.
	DupProb float64
	// ReorderProb adds a second latency sample to a message, letting later
	// sends overtake it even under near-fixed latency.
	ReorderProb float64
	// Bandwidth, in bytes per virtual second, adds a transfer delay
	// proportional to the encoded payload — 16 header + 4 bytes/city for
	// the legacy protocol, the actual WireTour size (segment diffs are
	// far smaller) under delta exchange. 0 = infinite.
	Bandwidth int64
}

// Partition isolates node groups from each other during [At, Heal):
// messages crossing a group boundary are dropped at send time. Nodes not
// listed in Groups form one implicit extra group. Heal <= At means the
// partition never heals.
type Partition struct {
	At, Heal time.Duration
	Groups   [][]int
}

// Crash stops a node at At: it stops stepping, its queued inbox is lost,
// and traffic to it is dropped. Restart > At revives it then; Fresh makes
// it come back with reconstructed search state (a real process restart)
// instead of resuming from its checkpoint.
type Crash struct {
	Node    int
	At      time.Duration
	Restart time.Duration
	Fresh   bool
}

// FaultStats tallies what the simulated network did to traffic. The
// distributed EA is designed to tolerate loss, so honest counters — not
// silent drops — are the whole point.
type FaultStats struct {
	Sent             int64 `json:"sent"`
	Delivered        int64 `json:"delivered"`
	Duplicated       int64 `json:"duplicated"`
	Reordered        int64 `json:"reordered"`
	DroppedLink      int64 `json:"dropped_link"`
	DroppedPartition int64 `json:"dropped_partition"`
	DroppedCrash     int64 `json:"dropped_crash"`
	DroppedInbox     int64 `json:"dropped_inbox"`

	// Delta-exchange ledger (zero unless Config.Exchange.Delta is on).
	// FullTours/DeltaTours count what senders encoded; WireBytes is the
	// payload total the bandwidth model charged; DeltaGaps counts
	// delivered deltas discarded for a base-generation mismatch (loss,
	// reorder, dup, or restart upstream); Coalesced counts queued tours
	// merged away before drain. DeltaMismatches counts reconstructions
	// that differed from the sender's tour — the always-on full-tour
	// oracle; any non-zero value is a wire-protocol bug.
	FullTours       int64 `json:"full_tours,omitempty"`
	DeltaTours      int64 `json:"delta_tours,omitempty"`
	WireBytes       int64 `json:"wire_bytes,omitempty"`
	DeltaGaps       int64 `json:"delta_gaps,omitempty"`
	Coalesced       int64 `json:"coalesced,omitempty"`
	DeltaMismatches int64 `json:"delta_mismatches,omitempty"`
}

// Drops sums every drop class.
func (f FaultStats) Drops() int64 {
	return f.DroppedLink + f.DroppedPartition + f.DroppedCrash + f.DroppedInbox
}

// Network is the virtual-time transport: the scheduler moves each
// message after its drawn delay, and each node's dist.Exchange does
// everything else. It must only be touched from Run's event loop.
type Network struct {
	n    int
	topo topology.Kind
	link Link
	ex   dist.ExchangeConfig

	sched *scheduler
	rng   *rand.Rand
	obs   *obs.Observer

	// xs[i] is node i's exchange endpoint. A crash restarts it: the
	// node's inbox and its delta streams, both ways, die with the process,
	// so it resumes with full tours on restart.
	xs          []*dist.Exchange
	crashed     []bool
	partitioned bool
	groupOf     []int

	stopped   bool
	stoppedAt time.Duration

	stats FaultStats
}

func newNetwork(n int, topo topology.Kind, link Link, capacity int, ex dist.ExchangeConfig, sched *scheduler, rng *rand.Rand, o *obs.Observer) *Network {
	nw := &Network{
		n:       n,
		topo:    topo,
		link:    link,
		ex:      ex,
		sched:   sched,
		rng:     rng,
		obs:     o,
		xs:      make([]*dist.Exchange, n),
		crashed: make([]bool, n),
		groupOf: make([]int, n),
	}
	for i := range nw.xs {
		nw.xs[i] = dist.NewExchange(i, ex, capacity, o.Recorder(i))
	}
	return nw
}

// Comm returns node id's view of the network.
func (nw *Network) Comm(id int) core.Comm {
	return &comm{nw: nw, id: id, neighbors: topology.Neighbors(nw.topo, nw.n, id)}
}

// wireMsg is one in-flight message: the encoded form plus, under delta
// exchange, the sender's actual tour at encode time, kept as the
// reconstruction oracle (decoded tours are compared against it; any
// mismatch is a protocol bug and lands in FaultStats.DeltaMismatches).
type wireMsg struct {
	wire   dist.WireTour
	oracle tsp.Tour // shared read-only across peers of one broadcast
}

// send pushes one copy of the message onto the from→to edge, applying the
// fault model in a fixed draw order (partition, loss, latency, bandwidth,
// reorder) so replays consume the rand stream identically.
func (nw *Network) send(to int, msg wireMsg) {
	from, length := msg.wire.From, msg.wire.Length
	if nw.partitioned && nw.groupOf[from] != nw.groupOf[to] {
		nw.stats.DroppedPartition++
		nw.obs.Recorder(to).Record(obs.KindMsgDropped, length, from)
		return
	}
	if nw.link.DropProb > 0 && nw.rng.Float64() < nw.link.DropProb {
		nw.stats.DroppedLink++
		nw.obs.Recorder(to).Record(obs.KindMsgDropped, length, from)
		return
	}
	delay := nw.link.Latency.sample(nw.rng)
	if nw.link.Bandwidth > 0 {
		// The full-tour protocol is charged its original 16-byte header,
		// which keeps replays of full-tour runs exact.
		bytes := int64(16 + 4*msg.wire.N)
		if nw.ex.Delta {
			bytes = int64(msg.wire.WireBytes())
		}
		delay += time.Duration(bytes * int64(time.Second) / nw.link.Bandwidth)
	}
	if nw.link.ReorderProb > 0 && nw.rng.Float64() < nw.link.ReorderProb {
		delay += nw.link.Latency.sample(nw.rng)
		nw.stats.Reordered++
	}
	nw.sched.after(delay, func() { nw.deliver(to, msg) })
}

// deliver lands a message at its (possibly meanwhile crashed or
// congested) destination and tallies what the receiver's exchange did
// with it.
func (nw *Network) deliver(to int, msg wireMsg) {
	from, length := msg.wire.From, msg.wire.Length
	if nw.crashed[to] {
		nw.stats.DroppedCrash++
		nw.obs.Recorder(to).Record(obs.KindMsgDropped, length, from)
		return
	}
	got, tour := nw.xs[to].Receive(msg.wire)
	switch got {
	case dist.Gap:
		// The link delivered the frame; the protocol discarded it.
		nw.stats.Delivered++
		nw.stats.DeltaGaps++
	case dist.Overflow:
		nw.stats.DroppedInbox++
	case dist.Coalesced:
		nw.stats.Coalesced++
		fallthrough
	default:
		nw.stats.Delivered++
		nw.obs.Recorder(to).Record(obs.KindMsgDelivered, length, from)
	}
	if msg.oracle != nil && tour != nil && !sameTour(tour, msg.oracle) {
		nw.stats.DeltaMismatches++
	}
}

// sameTour reports whether a and b are the same cycle as the wire codec
// transmits it: both normalized to start at city 0, in either traversal
// orientation (the encoder picks whichever orientation diffs smaller).
func sameTour(a, b tsp.Tour) bool {
	n := len(a)
	if n != len(b) {
		return false
	}
	fwd := true
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			fwd = false
			break
		}
	}
	if fwd {
		return true
	}
	if n < 2 || a[0] != b[0] {
		return false
	}
	for i := 1; i < n; i++ {
		if a[i] != b[n-i] {
			return false
		}
	}
	return true
}

// applyPartition activates a scripted split. Listed groups get ids 1..k;
// everyone else shares group 0.
func (nw *Network) applyPartition(p Partition) {
	nw.partitioned = true
	for i := range nw.groupOf {
		nw.groupOf[i] = 0
	}
	groups := 1
	for g, nodes := range p.Groups {
		for _, id := range nodes {
			if id >= 0 && id < nw.n {
				nw.groupOf[id] = g + 1
			}
		}
		groups++
	}
	nw.obs.Record(obs.KindPartitionStart, -1, int64(groups), -1)
}

func (nw *Network) healPartition() {
	nw.partitioned = false
	nw.obs.Record(obs.KindPartitionHeal, -1, 0, -1)
}

// crash kills a node: pending inbox lost, future traffic dropped, and
// its exchange state dies with the process — after a restart it sends
// full tours again, and its peers' deltas gap until their next keyframe.
func (nw *Network) crash(id int) {
	nw.crashed[id] = true
	nw.xs[id].Restart()
	nw.obs.Record(obs.KindNodeCrash, id, 0, -1)
}

func (nw *Network) restart(id int, fresh bool) {
	nw.crashed[id] = false
	v := int64(0)
	if fresh {
		v = 1
	}
	nw.obs.Record(obs.KindNodeRestart, id, v, -1)
}

// comm is one node's endpoint.
type comm struct {
	nw        *Network
	id        int
	neighbors []int
}

// Broadcast sends one message toward every peer the exchange picks,
// running each copy through the link fault model. A duplicated frame is
// the same message twice (under delta exchange the second copy gaps at
// the decoder, as on a real wire).
func (c *comm) Broadcast(t tsp.Tour, length int64) {
	nw := c.nw
	x := nw.xs[c.id]
	peers := x.Peers(c.neighbors, nw.n, nw.rng)
	var oracle tsp.Tour
	if nw.ex.Delta {
		// The codec transmits the canonical form, so the reconstruction
		// oracle is the canonical form too (same cycle, same length).
		oracle = t.Canonical()
	}
	for _, o := range peers {
		nw.stats.Sent++
		msg := wireMsg{wire: x.Encode(o, t, length), oracle: oracle}
		if nw.ex.Delta {
			nw.stats.WireBytes += int64(msg.wire.WireBytes())
			if msg.wire.Full {
				nw.stats.FullTours++
			} else {
				nw.stats.DeltaTours++
			}
		}
		copies := 1
		if nw.link.DupProb > 0 && nw.rng.Float64() < nw.link.DupProb {
			copies = 2
			nw.stats.Duplicated++
			nw.obs.Recorder(o).Record(obs.KindMsgDuplicated, length, c.id)
		}
		for k := 0; k < copies; k++ {
			nw.send(o, msg)
		}
	}
}

// Drain empties the node's inbox.
func (c *comm) Drain() []core.Incoming { return c.nw.xs[c.id].Drain() }

// AnnounceOptimum stops the whole network (the paper's criterion (2)). The
// virtual timestamp of the first announcement is the run's time-to-target.
func (c *comm) AnnounceOptimum(int64) {
	if !c.nw.stopped {
		c.nw.stopped = true
		c.nw.stoppedAt = c.nw.sched.now
	}
}

// Stopped reports whether any node announced the optimum.
func (c *comm) Stopped() bool { return c.nw.stopped }
