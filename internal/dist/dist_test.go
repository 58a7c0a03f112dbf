package dist

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"distclk/internal/core"
	"distclk/internal/exact"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// testCtx bounds a test run the way Deadline budgets used to.
func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(typ byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			return false
		}
		gotType, gotPayload, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return gotType == typ && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{msgTourFull, 0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTourCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		tour := tsp.IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { tour[i], tour[j] = tour[j], tour[i] })
		w := WireTour{From: rng.Intn(64), Length: rng.Int63(), N: n, Full: true, Tour: tour}
		typ, buf := encodeWireTour(w)
		got, err := decodeWireTour(typ, buf, n)
		if err != nil {
			t.Fatal(err)
		}
		if got.From != w.From || got.Length != w.Length || len(got.Tour) != n {
			t.Fatalf("header mismatch: %d/%d/%d", got.From, got.Length, len(got.Tour))
		}
		for i := range tour {
			if tour[i] != got.Tour[i] {
				t.Fatal("tour corrupted in codec")
			}
		}
	}
}

func TestTourCodecRejectsCorrupt(t *testing.T) {
	typ, buf := encodeWireTour(WireTour{From: 1, Length: 100, N: 10, Full: true, Tour: tsp.IdentityTour(10)})
	if _, err := decodeWireTour(typ, buf[:len(buf)-3], 10); err == nil {
		t.Fatal("truncated tour accepted")
	}
	if _, err := decodeWireTour(typ, buf[:8], 10); err == nil {
		t.Fatal("short payload accepted")
	}
	_, buf = encodeWireTour(WireTour{From: 1, Length: 100, N: 10, Full: true, Tour: tsp.Tour{0, 1, 2, 3, 4, 5, 6, 7, 8, 8}})
	if _, err := decodeWireTour(typ, buf, 10); err == nil {
		t.Fatal("full tour that is not a permutation accepted")
	}
}

func TestNeighborsCodecRoundTrip(t *testing.T) {
	buf := encodeNeighbors(5, 8, []int{1, 4, 7}, []string{"a:1", "b:22", "c:333"})
	id, total, ids, addrs, err := decodeNeighbors(buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 || total != 8 || len(ids) != 3 || len(addrs) != 3 {
		t.Fatalf("decoded %d/%d/%v/%v", id, total, ids, addrs)
	}
	if ids[2] != 7 || addrs[2] != "c:333" {
		t.Fatalf("wrong entries: %v %v", ids, addrs)
	}
	if _, _, _, _, err := decodeNeighbors(buf[:5]); err == nil {
		t.Fatal("truncated neighbour payload accepted")
	}
}

func TestChanNetworkBroadcastReachesNeighborsOnly(t *testing.T) {
	nw := NewChanNetwork(8, topology.Hypercube, ExchangeConfig{}, 0, nil)
	comms := make([]core.Comm, 8)
	for i := range comms {
		comms[i] = nw.Comm(i)
	}
	tour := tsp.IdentityTour(5)
	comms[0].Broadcast(tour, 123)
	// Node 0's hypercube neighbours are 1, 2, 4.
	for id := 1; id < 8; id++ {
		got := comms[id].Drain()
		isNeighbor := id == 1 || id == 2 || id == 4
		if isNeighbor && (len(got) != 1 || got[0].From != 0 || got[0].Length != 123) {
			t.Errorf("neighbour %d received %v", id, got)
		}
		if !isNeighbor && len(got) != 0 {
			t.Errorf("non-neighbour %d received %v", id, got)
		}
	}
}

func TestChanNetworkBroadcastCopiesTour(t *testing.T) {
	nw := NewChanNetwork(2, topology.Complete, ExchangeConfig{}, 0, nil)
	a, b := nw.Comm(0), nw.Comm(1)
	tour := tsp.IdentityTour(4)
	a.Broadcast(tour, 10)
	tour[0], tour[1] = tour[1], tour[0] // mutate after send
	got := b.Drain()
	if len(got) != 1 {
		t.Fatal("no message")
	}
	if got[0].Tour[0] != 0 || got[0].Tour[1] != 1 {
		t.Fatal("broadcast aliased the sender's tour")
	}
}

func TestChanNetworkOptimumStopsEveryone(t *testing.T) {
	nw := NewChanNetwork(4, topology.Ring, ExchangeConfig{}, 0, nil)
	nw.Comm(2).AnnounceOptimum(42)
	for i := 0; i < 4; i++ {
		if !nw.Comm(i).Stopped() {
			t.Errorf("node %d not stopped", i)
		}
	}
}

func TestChanNetworkDropsWhenFull(t *testing.T) {
	observer := obs.NewObserver(2, nil)
	nw := NewChanNetwork(2, topology.Complete, ExchangeConfig{}, 0, observer)
	a := nw.Comm(0)
	tour := tsp.IdentityTour(3)
	for i := 0; i < InboxCapacity+10; i++ {
		a.Broadcast(tour, int64(i))
	}
	if got := nw.Comm(1).Drain(); len(got) != InboxCapacity {
		t.Errorf("drained %d, want %d", len(got), InboxCapacity)
	}
	// Overflow drops are observable: counter on the receiver plus one
	// msg-dropped event per lost tour, attributed receiver<-sender.
	counters := observer.Counters()
	if counters[1].MsgDrops != 10 {
		t.Errorf("receiver counted %d drops, want 10", counters[1].MsgDrops)
	}
	dropped := 0
	for _, e := range observer.Events() {
		if e.Kind == obs.KindMsgDropped {
			dropped++
			if e.Node != 1 || e.From != 0 {
				t.Errorf("drop event misattributed: %+v", e)
			}
		}
	}
	if dropped != 10 {
		t.Errorf("%d msg-dropped events, want 10", dropped)
	}
}

func TestRunClusterFindsOptimumAndStops(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 14, 21)
	_, optLen, err := exact.HeldKarp(in)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{
		Nodes: 4,
		Topo:  topology.Hypercube,
		EA:    core.DefaultConfig(),
		Budget: core.Budget{
			Target:        optLen,
			MaxIterations: 500,
		},
		Seed: 1,
	}
	res := RunCluster(testCtx(t, 30*time.Second), in, cfg)
	if res.BestLength != optLen {
		t.Fatalf("cluster reached %d, optimum %d", res.BestLength, optLen)
	}
	if err := res.BestTour.Validate(14); err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats for %d nodes", len(res.Stats))
	}
}

func TestRunClusterCooperationSpreadsTours(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 200, 23)
	cfg := ClusterConfig{
		Nodes: 4,
		Topo:  topology.Complete,
		EA: func() core.Config {
			c := core.DefaultConfig()
			c.KicksPerCall = 10
			return c
		}(),
		Budget: core.Budget{
			MaxIterations: 15,
		},
		Seed: 2,
	}
	res := RunCluster(testCtx(t, 60*time.Second), in, cfg)
	if res.Broadcasts() == 0 {
		t.Fatal("no broadcasts in a cooperative run")
	}
	var received int64
	for _, s := range res.Stats {
		received += s.Received
	}
	if received == 0 {
		t.Fatal("no node ever received a tour")
	}
	sent := 0
	for _, e := range res.Events {
		if e.Kind == obs.KindBroadcastSent {
			sent++
		}
	}
	if sent == 0 {
		t.Fatal("no broadcast-sent events recorded")
	}
	// All nodes should end close to the global best thanks to exchange.
	for _, s := range res.Stats {
		if float64(s.BestLength) > float64(res.BestLength)*1.2 {
			t.Errorf("node %d ended at %d, global best %d — no cooperation?",
				s.Node, s.BestLength, res.BestLength)
		}
	}
}

func TestTCPClusterIntegration(t *testing.T) {
	const nodes = 4
	in := tsp.Generate(tsp.FamilyUniform, 60, 25)

	hub, err := NewHub("127.0.0.1:0", nodes, topology.Hypercube)
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(context.Background())
	defer hub.Close()

	tcpNodes := make([]*TCPNode, nodes)
	for i := 0; i < nodes; i++ {
		n, err := JoinTCP(context.Background(), hub.Addr(), "127.0.0.1:0", in.N())
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		defer n.Close()
		tcpNodes[i] = n
	}
	hub.Wait()

	// Wait for contact-back connections to settle: every node in a 2-bit
	// hypercube has exactly 2 peers.
	ctx := testCtx(t, 30*time.Second)
	for i, n := range tcpNodes {
		if err := n.WaitPeers(ctx, 2); err != nil {
			t.Fatalf("node %d peers never connected: %v", i, err)
		}
		if n.PeerCount() != 2 {
			t.Fatalf("node %d has %d peers, want 2", i, n.PeerCount())
		}
	}

	// Broadcast a tour from node 0; exactly its hypercube neighbours must
	// get it.
	tour := tsp.IdentityTour(in.N())
	sender := tcpNodes[0].ID
	wantRecv := map[int]bool{}
	for _, o := range topology.Neighbors(topology.Hypercube, nodes, sender) {
		wantRecv[o] = true
	}
	tcpNodes[0].Broadcast(tour, 999)
	for _, n := range tcpNodes[1:] {
		if wantRecv[n.ID] {
			checkDelivery(t, n.ID, drainOne(ctx, t, n), sender, wantRecv, in.N())
		}
	}
	for _, n := range tcpNodes[1:] {
		if got := n.Drain(); len(got) != 0 {
			t.Fatalf("unexpected delivery to node %d: %v", n.ID, got)
		}
	}

	// Optimum notification floods to every node.
	tcpNodes[1].AnnounceOptimum(12345)
	for i, n := range tcpNodes {
		if !poll(ctx, n.Stopped) {
			t.Fatalf("optimum notification did not flood to node %d", i)
		}
	}
}

// poll calls cond every millisecond until it reports true or ctx ends,
// and reports whether cond held.
func poll(ctx context.Context, cond func() bool) bool {
	for !cond() {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(time.Millisecond):
		}
	}
	return true
}

// drainOne polls n's inbox until it holds a tour, and returns the only
// one.
func drainOne(ctx context.Context, t *testing.T, n *TCPNode) core.Incoming {
	t.Helper()
	var got []core.Incoming
	if !poll(ctx, func() bool { got = n.Drain(); return len(got) > 0 }) {
		t.Fatalf("node %d: no tour arrived", n.ID)
	}
	if len(got) != 1 {
		t.Fatalf("node %d drained %d tours, want 1", n.ID, len(got))
	}
	return got[0]
}

// checkDelivery asserts one broadcast landed on an expected neighbour and
// marks it received.
func checkDelivery(t *testing.T, id int, m core.Incoming, sender int, want map[int]bool, instN int) {
	t.Helper()
	if !want[id] {
		t.Fatalf("unexpected delivery to node %d: %v", id, m)
	}
	if m.From != sender || m.Length != 999 {
		t.Fatalf("node %d got unexpected message %v", id, m)
	}
	if err := m.Tour.Validate(instN); err != nil {
		t.Fatal(err)
	}
	delete(want, id)
}

func TestTCPNodesRunDistributedEA(t *testing.T) {
	const nodes = 2
	in := tsp.Generate(tsp.FamilyUniform, 80, 27)

	hub, err := NewHub("127.0.0.1:0", nodes, topology.Complete)
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(context.Background())
	defer hub.Close()

	results := make(chan obs.CounterSnapshot, nodes)
	for i := 0; i < nodes; i++ {
		go func(idx int) {
			tn, err := JoinTCP(context.Background(), hub.Addr(), "127.0.0.1:0", in.N())
			if err != nil {
				t.Errorf("join: %v", err)
				results <- obs.CounterSnapshot{}
				return
			}
			defer tn.Close()
			cfg := core.DefaultConfig()
			cfg.KicksPerCall = 10
			node := core.NewNode(tn.ID, in, cfg, tn, int64(idx+1))
			results <- node.Run(testCtx(t, 60*time.Second), core.Budget{
				MaxIterations: 10,
			})
		}(i)
	}
	var best int64 = 1 << 62
	for i := 0; i < nodes; i++ {
		s := <-results
		if s.BestLength > 0 && s.BestLength < best {
			best = s.BestLength
		}
	}
	if best == 1<<62 {
		t.Fatal("no node produced a result")
	}
}
