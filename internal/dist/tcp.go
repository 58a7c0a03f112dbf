package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distclk/internal/core"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// DefaultIOTimeout bounds handshake reads and every frame write unless
// TCPConfig (or Hub.SetIOTimeout) overrides it. A peer that stops reading
// cannot wedge a broadcaster: the write deadline fires, the send errors,
// and the peer is dropped (P2P churn tolerance).
const DefaultIOTimeout = 10 * time.Second

// TCPConfig tunes a TCP node. The zero value gives defaults.
type TCPConfig struct {
	// IOTimeout bounds handshake reads and frame writes (0 = the package
	// DefaultIOTimeout). Tests shorten it to fail fast; deployments over
	// slow links raise it.
	IOTimeout time.Duration
	// Exchange selects the wire protocol. A new connection from a peer
	// restarts both of its delta streams from a full tour. Gossip is not
	// available over TCP — nodes only know the hub-assigned neighbour
	// addresses, not the whole cluster.
	Exchange ExchangeConfig
}

func (c TCPConfig) ioTimeout() time.Duration {
	if c.IOTimeout > 0 {
		return c.IOTimeout
	}
	return DefaultIOTimeout
}

// TCPNode is a core.Comm over real TCP connections. Nodes form a
// peer-to-peer overlay: each maintains persistent connections to its
// topology neighbours, broadcasts improved tours as length-prefixed binary
// frames, and floods an optimum notification for distributed termination.
// What a tour frame means is the node's Exchange's business; TCPNode only
// moves frames.
type TCPNode struct {
	ID    int
	Total int

	instN     int
	ln        net.Listener
	ioTimeout time.Duration
	x         *Exchange

	mu       sync.Mutex
	peerCond *sync.Cond // broadcast on every peer add/remove
	peers    map[int]*tcpPeer

	stopped   atomic.Bool
	forwarded atomic.Bool
	closed    atomic.Bool
}

type tcpPeer struct {
	id      int
	conn    net.Conn
	timeout time.Duration
	wmu     sync.Mutex
}

func (p *tcpPeer) send(typ byte, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	//lint:ignore locksafety wmu exists to serialize frame writes on this one connection and the write is bounded by the deadline above
	err := writeFrame(p.conn, typ, payload)
	p.conn.SetWriteDeadline(time.Time{})
	return err
}

// JoinTCP bootstraps a node: it starts listening on listenAddr (use
// "127.0.0.1:0" to auto-pick a port), registers with the hub, and dials the
// neighbours the hub reported. instN is the instance size used to validate
// incoming tours. ctx bounds the bootstrap (hub dial + handshake + peer
// dials); once joined, the node lives until Close.
func JoinTCP(ctx context.Context, hubAddr, listenAddr string, instN int) (*TCPNode, error) {
	return JoinTCPConfig(ctx, hubAddr, listenAddr, instN, TCPConfig{}, nil)
}

// JoinTCPConfig is JoinTCP with explicit tuning. The node records into
// its own obs.Recorder (see Recorder), which emits into sink; nil
// discards the events and keeps the counters.
func JoinTCPConfig(ctx context.Context, hubAddr, listenAddr string, instN int, cfg TCPConfig, sink obs.Sink) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	n := &TCPNode{
		instN:     instN,
		ln:        ln,
		ioTimeout: cfg.ioTimeout(),
		peers:     make(map[int]*tcpPeer),
	}
	n.peerCond = sync.NewCond(&n.mu)

	var d net.Dialer
	hub, err := d.DialContext(ctx, "tcp", hubAddr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer hub.Close()
	hub.SetDeadline(handshakeDeadline(ctx, n.ioTimeout))
	if err := writeFrame(hub, msgJoin, []byte(ln.Addr().String())); err != nil {
		ln.Close()
		return nil, err
	}
	typ, payload, err := readFrame(hub)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if typ != msgNeighbors {
		ln.Close()
		return nil, fmt.Errorf("dist: expected neighbour list, got type %d", typ)
	}
	id, total, ids, addrs, err := decodeNeighbors(payload)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.ID, n.Total = id, total
	n.x = NewExchange(id, cfg.Exchange, InboxCapacity, obs.NewRecorder(id, sink))
	// Peers that dial in before Accept runs wait in the listen backlog.
	//lint:ignore goroleak bounded by the listener: Close() in TCPNode.Close unblocks Accept and the loop returns
	go n.acceptLoop()

	for i := range ids {
		if err := n.dialPeer(ctx, ids[i], addrs[i]); err != nil {
			// A neighbour that vanished is tolerated: P2P networks are
			// designed for churn; remaining edges keep the overlay usable.
			continue
		}
	}
	return n, nil
}

// handshakeDeadline clips the IO timeout by the context deadline.
func handshakeDeadline(ctx context.Context, timeout time.Duration) time.Time {
	dl := time.Now().Add(timeout)
	if ctxDL, ok := ctx.Deadline(); ok && ctxDL.Before(dl) {
		dl = ctxDL
	}
	return dl
}

// Addr returns the node's listen address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// PeerCount reports the number of live peer connections.
func (n *TCPNode) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// WaitPeers blocks until at least `want` peer connections are live or ctx
// is done — the event-driven replacement for PeerCount polling loops.
func (n *TCPNode) WaitPeers(ctx context.Context, want int) error {
	// Wake the cond wait when ctx fires; sync.Cond has no context form.
	stop := context.AfterFunc(ctx, func() {
		n.mu.Lock()
		n.peerCond.Broadcast()
		n.mu.Unlock()
	})
	defer stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.peers) < want {
		if err := ctx.Err(); err != nil {
			return err
		}
		n.peerCond.Wait()
	}
	return nil
}

func (n *TCPNode) dialPeer(ctx context.Context, id int, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(n.ID))
	conn.SetWriteDeadline(handshakeDeadline(ctx, n.ioTimeout))
	if err := writeFrame(conn, msgHello, hello[:]); err != nil {
		conn.Close()
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	n.addPeer(id, conn)
	return nil
}

func (n *TCPNode) addPeer(id int, conn net.Conn) {
	p := &tcpPeer{id: id, conn: conn, timeout: n.ioTimeout}
	n.mu.Lock()
	if old, ok := n.peers[id]; ok {
		old.conn.Close()
	}
	n.x.Forget(id)
	n.peers[id] = p
	n.peerCond.Broadcast()
	n.mu.Unlock()
	//lint:ignore goroleak bounded by the connection: Close (via removePeer or TCPNode.Close) fails the blocking read and the loop returns
	go n.readLoop(p)
}

func (n *TCPNode) removePeer(p *tcpPeer) {
	n.mu.Lock()
	if n.peers[p.id] == p {
		delete(n.peers, p.id)
	}
	n.peerCond.Broadcast()
	n.mu.Unlock()
	p.conn.Close()
}

func (n *TCPNode) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		//lint:ignore goroleak bounded by the read deadline: the handshake read times out after ioTimeout and the goroutine exits
		go func(c net.Conn) {
			c.SetReadDeadline(time.Now().Add(n.ioTimeout))
			typ, payload, err := readFrame(c)
			if err != nil || typ != msgHello || len(payload) != 4 {
				c.Close()
				return
			}
			c.SetReadDeadline(time.Time{})
			from := int(binary.LittleEndian.Uint32(payload))
			n.addPeer(from, c)
		}(conn)
	}
}

func (n *TCPNode) readLoop(p *tcpPeer) {
	for {
		typ, payload, err := readFrame(p.conn)
		if err != nil {
			n.removePeer(p)
			return
		}
		switch typ {
		case msgTourFull, msgTourDelta:
			w, err := decodeWireTour(typ, payload, n.instN)
			if err != nil {
				continue // corrupt frames are dropped, not fatal
			}
			n.x.Receive(w)
		case msgOptimum:
			n.stopped.Store(true)
			n.forwardOptimum(payload)
		}
	}
}

// livePeers snapshots the current peer connections.
func (n *TCPNode) livePeers() []*tcpPeer {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make([]*tcpPeer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	return peers
}

func (n *TCPNode) forwardOptimum(payload []byte) {
	if !n.forwarded.CompareAndSwap(false, true) {
		return
	}
	for _, p := range n.livePeers() {
		if err := p.send(msgOptimum, payload); err != nil {
			n.removePeer(p)
		}
	}
}

// Broadcast implements core.Comm: one frame per connected peer. Only the
// node's own goroutine broadcasts, so each peer's delta stream goes on the
// wire in generation order.
func (n *TCPNode) Broadcast(t tsp.Tour, length int64) {
	for _, p := range n.livePeers() {
		typ, payload := encodeWireTour(n.x.Encode(p.id, t, length))
		if err := p.send(typ, payload); err != nil {
			n.removePeer(p)
		}
	}
}

// Recorder returns the node's recorder: the exchange counts its wire
// events there, and a core.Node running on this TCPNode records into it
// too (see NewNode).
func (n *TCPNode) Recorder() *obs.Recorder { return n.x.rec }

// Drain implements core.Comm.
func (n *TCPNode) Drain() []core.Incoming { return n.x.Drain() }

// AnnounceOptimum implements core.Comm: flood the termination notice.
func (n *TCPNode) AnnounceOptimum(length int64) {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(length))
	n.stopped.Store(true)
	n.forwardOptimum(payload[:])
}

// Stopped implements core.Comm.
func (n *TCPNode) Stopped() bool { return n.stopped.Load() }

// Close tears the node down.
func (n *TCPNode) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := n.ln.Close()
	n.mu.Lock()
	for _, p := range n.peers {
		p.conn.Close()
	}
	n.peers = map[int]*tcpPeer{}
	n.mu.Unlock()
	return err
}
