package dist

import (
	"math/rand"
	"sync/atomic"

	"distclk/internal/core"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// ChanNetwork is the in-process network: every node is a goroutine and a
// tour travels as a function call from the sender's Exchange to the
// receiver's, whose mutex guards its inbox. It reproduces the paper's
// communication pattern exactly (asynchronous broadcast to topology
// neighbours, drain-on-demand) without sockets, so simulations and tests
// are deterministic in structure and fast. Message-flow telemetry is not
// recorded here: nodes emit broadcast-sent/received events through their
// obs.Recorder, which sees every transport identically.
type ChanNetwork struct {
	n       int
	topo    topology.Kind
	seed    int64
	xs      []*Exchange
	stopped atomic.Bool
}

// NewChanNetwork creates the network for n nodes on the given topology.
// ex selects the exchange protocol; seed feeds gossip peer sampling
// (per-node streams derive from it). Node i's exchange events go to
// o.Recorder(i); o may be nil.
func NewChanNetwork(n int, topo topology.Kind, ex ExchangeConfig, seed int64, o *obs.Observer) *ChanNetwork {
	nw := &ChanNetwork{n: n, topo: topo, seed: seed, xs: make([]*Exchange, n)}
	for i := range nw.xs {
		nw.xs[i] = NewExchange(i, ex, InboxCapacity, o.Recorder(i))
	}
	return nw
}

// Comm returns node id's view of the network.
func (nw *ChanNetwork) Comm(id int) core.Comm {
	return &chanComm{
		nw:        nw,
		x:         nw.xs[id],
		neighbors: topology.Neighbors(nw.topo, nw.n, id),
		rng:       rand.New(rand.NewSource(nw.seed ^ (int64(id)+1)*0x9E3779B9)),
	}
}

type chanComm struct {
	nw        *ChanNetwork
	x         *Exchange
	neighbors []int
	rng       *rand.Rand // gossip peer sampling; single-goroutine
}

// Broadcast hands one message per peer to that peer's exchange.
func (c *chanComm) Broadcast(t tsp.Tour, length int64) {
	for _, o := range c.x.Peers(c.neighbors, c.nw.n, c.rng) {
		c.nw.xs[o].Receive(c.x.Encode(o, t, length))
	}
}

// Drain empties the node's inbox.
func (c *chanComm) Drain() []core.Incoming { return c.x.Drain() }

// AnnounceOptimum stops the whole network (the paper's criterion (2)).
func (c *chanComm) AnnounceOptimum(int64) { c.nw.stopped.Store(true) }

// Stopped reports whether any node announced the optimum.
func (c *chanComm) Stopped() bool { return c.nw.stopped.Load() }
