package dist

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"distclk/internal/core"
	"distclk/internal/obs"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

func randTour(rng *rand.Rand, n int) tsp.Tour {
	t := make(tsp.Tour, n)
	for i := range t {
		t[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { t[i], t[j] = t[j], t[i] })
	return t
}

// wantWire asserts got is the wire image of sent: the canonical form
// (city 0 first) in either traversal orientation, since the encoder
// normalizes rotation before diffing and then keeps whichever
// orientation produces the smaller delta.
func wantWire(t *testing.T, tag string, got, sent tsp.Tour) {
	t.Helper()
	want := sent.Canonical()
	n := len(want)
	if len(got) != n {
		t.Fatalf("%s: reconstructed tour has %d cities, want %d", tag, len(got), n)
	}
	fwd := true
	for i := range want {
		if got[i] != want[i] {
			fwd = false
			break
		}
	}
	if fwd {
		return
	}
	if n < 2 || got[0] != want[0] {
		t.Fatalf("%s: reconstructed tour does not start at the canonical city", tag)
	}
	for i := 1; i < n; i++ {
		if got[i] != want[n-i] {
			t.Fatalf("%s: reconstructed tour differs at %d in both orientations", tag, i)
		}
	}
}

// mutate applies k random segment reversals — the shape of kick/LK edits.
func mutate(rng *rand.Rand, t tsp.Tour, k int) {
	for ; k > 0; k-- {
		i, j := rng.Intn(len(t)), rng.Intn(len(t))
		if i > j {
			i, j = j, i
		}
		for i < j {
			t[i], t[j] = t[j], t[i]
			i++
			j--
		}
	}
}

func TestDiffSegsReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 10 + rng.Intn(200)
		old := randTour(rng, n)
		cur := old.Clone()
		mutate(rng, cur, 1+rng.Intn(4))
		segs := diffSegs(old, cur)
		rebuilt := old.Clone()
		for _, s := range segs {
			copy(rebuilt[s.Pos:], s.Cities)
		}
		for i := range cur {
			if rebuilt[i] != cur[i] {
				t.Fatalf("trial %d: position %d = %d, want %d", trial, i, rebuilt[i], cur[i])
			}
		}
	}
}

func TestDiffSegsIdentical(t *testing.T) {
	old := tsp.Tour{0, 1, 2, 3, 4}
	if segs := diffSegs(old, old.Clone()); len(segs) != 0 {
		t.Fatalf("identical tours produced segs %v", segs)
	}
}

// TestEncoderDecoderStream: a fault-free stream reconstructs the
// sender's tour exactly at every generation, and sends deltas for
// everything but the first message and keyframes.
func TestEncoderDecoderStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	enc, dec := &DeltaEncoder{}, &DeltaDecoder{}
	cur := randTour(rng, 120)
	fulls, deltas := 0, 0
	for gen := 0; gen < 50; gen++ {
		w := enc.Encode(3, cur, int64(1000+gen), 16)
		if w.Full {
			fulls++
		} else {
			deltas++
		}
		got, ok := dec.Decode(w)
		if !ok {
			t.Fatalf("gen %d: decode failed on a loss-free stream", gen)
		}
		wantWire(t, fmt.Sprintf("gen %d", gen), got, cur)
		mutate(rng, cur, 2)
	}
	// 50 sends, keyframe 16 (a full after every 16 deltas): sends 1, 18,
	// and 35 are full.
	if fulls != 3 || deltas != 47 {
		t.Fatalf("fulls=%d deltas=%d, want 3/47", fulls, deltas)
	}
}

// TestGenerationGapFallback is the satellite unit test: a lost delta
// must make the next delta gap (discarded, not misapplied), and the
// next full tour must heal the stream.
func TestGenerationGapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enc, dec := &DeltaEncoder{}, &DeltaDecoder{}
	cur := randTour(rng, 80)

	if _, ok := dec.Decode(enc.Encode(0, cur, 100, 8)); !ok {
		t.Fatal("first (full) message rejected")
	}
	mutate(rng, cur, 2)
	lost := enc.Encode(0, cur, 99, 8) // delta, never delivered
	if lost.Full {
		t.Fatal("second message should be a delta")
	}
	mutate(rng, cur, 2)
	next := enc.Encode(0, cur, 98, 8) // delta on top of the lost one
	if next.Full {
		t.Fatal("third message should be a delta")
	}
	if _, ok := dec.Decode(next); ok {
		t.Fatal("delta applied across a generation gap")
	}
	// A duplicate of an already-applied generation must also gap, not
	// double-apply.
	if _, ok := dec.Decode(next); ok {
		t.Fatal("duplicate delta applied")
	}
	// The stream stays gapped until the keyframe full tour heals it.
	for i := 0; i < 10; i++ {
		mutate(rng, cur, 1)
		w := enc.Encode(0, cur, int64(90-i), 8)
		got, ok := dec.Decode(w)
		if !ok {
			if w.Full {
				t.Fatal("full tour rejected")
			}
			continue
		}
		if !w.Full {
			t.Fatal("a delta decoded while the stream was gapped")
		}
		wantWire(t, "healed stream", got, cur)
		// Healed: the following delta applies again.
		mutate(rng, cur, 1)
		if _, ok := dec.Decode(enc.Encode(0, cur, 80, 8)); !ok {
			t.Fatal("delta after heal rejected")
		}
		return
	}
	t.Fatal("stream never healed within the keyframe cadence")
}

// TestDecoderFreshStateFallsBackToFull: a receiver that lost its state
// (crash/restart, TCP reconnect) discards deltas until a full arrives —
// the "after peer crash/restart" fallback rule.
func TestDecoderFreshStateFallsBackToFull(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	enc := &DeltaEncoder{}
	cur := randTour(rng, 60)
	enc.Encode(1, cur, 50, 32)
	mutate(rng, cur, 1)
	w := enc.Encode(1, cur, 49, 32)
	fresh := &DeltaDecoder{} // restarted receiver
	if _, ok := fresh.Decode(w); ok {
		t.Fatal("fresh decoder accepted a delta with no base state")
	}
}

// A restarted sender resumes with a full tour, and its generations carry
// on from the old incarnation's: when that full tour is lost, a peer still
// holding the old incarnation's first generation gaps on the next delta
// instead of applying it to the old tour.
func TestRestartedSenderNeverReusesGenerations(t *testing.T) {
	ex := ExchangeConfig{Delta: true, KeyframeEvery: 16}
	sender, peer := NewExchange(0, ex, 8, nil), NewExchange(1, ex, 8, nil)
	// Three canonical tours, each one reversal from the one before, in
	// disjoint position ranges: the last delta applied to the first tour
	// is still a permutation, just the wrong one.
	reverse := func(t tsp.Tour, i, j int) tsp.Tour {
		t = t.Clone()
		for ; i < j; i, j = i+1, j-1 {
			t[i], t[j] = t[j], t[i]
		}
		return t
	}
	old := make(tsp.Tour, 60)
	for i := range old {
		old[i] = int32(i)
	}
	restarted := reverse(old, 10, 20)
	next := reverse(restarted, 40, 50)

	if got, _ := peer.Receive(sender.Encode(1, old, 590)); got != Queued {
		t.Fatalf("first full tour: %v, want queued", got)
	}
	peer.Drain()
	sender.Restart()
	if w := sender.Encode(1, restarted, 580); !w.Full {
		t.Fatal("restarted sender's first message is a delta")
	} // lost on the way
	w := sender.Encode(1, next, 570)
	if w.Full {
		t.Fatal("second message after the restart is full; the test needs a delta")
	}
	if got, tour := peer.Receive(w); got != Gap {
		t.Fatalf("delta after a lost keyframe: %v, want a gap (decoded %v)", got, tour)
	}
}

func TestEncoderFallsBackWhenDeltaIsNotSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	enc := &DeltaEncoder{}
	cur := randTour(rng, 100)
	enc.Encode(0, cur, 10, 1000)
	// A completely reshuffled tour diffs everywhere; the encoder must
	// notice the delta would not be smaller and send full.
	next := randTour(rng, 100)
	w := enc.Encode(0, next, 9, 1000)
	if !w.Full {
		t.Fatalf("whole-tour change encoded as %d segs (%d bytes)", len(w.Segs), w.WireBytes())
	}
}

func TestDecoderRejectsCorruptPermutation(t *testing.T) {
	dec := &DeltaDecoder{}
	bad := WireTour{From: 0, N: 4, Gen: 1, Full: true, Tour: tsp.Tour{0, 1, 1, 3}}
	if _, ok := dec.Decode(bad); ok {
		t.Fatal("decoder accepted a non-permutation full tour")
	}
}

// TestChanNetworkDeltaExchange runs a delta-enabled ChanNetwork by hand
// and checks reconstruction plus the obs counters.
func TestChanNetworkDeltaExchange(t *testing.T) {
	ex := ExchangeConfig{Delta: true, KeyframeEvery: 8}
	observer := obs.NewObserver(2, nil)
	nw := NewChanNetwork(2, topology.Ring, ex, 1, observer)
	sender, receiver := nw.Comm(0), nw.Comm(1)

	rng := rand.New(rand.NewSource(23))
	cur := randTour(rng, 90)
	for i := 0; i < 20; i++ {
		sender.Broadcast(cur, int64(500-i))
		got := receiver.Drain()
		if len(got) != 1 {
			t.Fatalf("round %d: drained %d messages, want 1", i, len(got))
		}
		wantWire(t, fmt.Sprintf("round %d", i), got[0].Tour, cur)
		mutate(rng, cur, 2)
	}
	snap := observer.Recorder(0).Snapshot()
	// 20 broadcasts, keyframe 8: gens 1, 9, 17 full → 3 full, 17 delta.
	if snap.FullSends != 3 || snap.DeltaSends != 17 {
		t.Fatalf("full=%d delta=%d, want 3/17", snap.FullSends, snap.DeltaSends)
	}
	if snap.WireBytes == 0 {
		t.Fatal("wire bytes not counted")
	}
}

// TestChanNetworkCoalesce: queued tours from the same sender merge down
// to the single best one.
func TestChanNetworkCoalesce(t *testing.T) {
	ex := ExchangeConfig{Coalesce: true}
	observer := obs.NewObserver(2, nil)
	nw := NewChanNetwork(2, topology.Ring, ex, 1, observer)
	sender, receiver := nw.Comm(0), nw.Comm(1)

	rng := rand.New(rand.NewSource(29))
	worse, better := randTour(rng, 40), randTour(rng, 40)
	sender.Broadcast(worse, 900)
	sender.Broadcast(better, 700)
	sender.Broadcast(worse, 800) // worse than queued best: merged away
	got := receiver.Drain()
	if len(got) != 1 {
		t.Fatalf("drained %d messages, want 1 after coalescing", len(got))
	}
	if got[0].Length != 700 {
		t.Fatalf("survivor length %d, want the best (700)", got[0].Length)
	}
	if c := observer.Recorder(1).Snapshot().Coalesced; c != 2 {
		t.Fatalf("coalesced=%d, want 2", c)
	}
}

// TestChanNetworkGossipSamplesWholeCluster: gossip mode must reach peers
// outside the fixed topology neighbourhood, never self, and respect the
// fanout.
func TestChanNetworkGossipSamplesWholeCluster(t *testing.T) {
	const n = 16
	ex := ExchangeConfig{Gossip: true, Fanout: 3}
	nw := NewChanNetwork(n, topology.Ring, ex, 42, nil)
	comms := make([]core.Comm, n)
	for i := range comms {
		comms[i] = nw.Comm(i)
	}
	tour := randTour(rand.New(rand.NewSource(31)), 30)
	reached := make(map[int]bool)
	for round := 0; round < 40; round++ {
		comms[0].Broadcast(tour, 100)
		for i := 1; i < n; i++ {
			for _, in := range comms[i].Drain() {
				if in.From != 0 {
					t.Fatalf("node %d got message from %d", i, in.From)
				}
				reached[i] = true
			}
		}
		if got := comms[0].Drain(); len(got) != 0 {
			t.Fatal("gossip delivered to self")
		}
	}
	// 40 rounds × fanout 3 over 15 peers: every ring-distant peer should
	// have been sampled (probability of missing one is ~(12/15)^120).
	if len(reached) < n-2 {
		t.Fatalf("gossip reached only %d/%d peers", len(reached), n-1)
	}
}

// TestRunClusterDeltaGossip: the full cluster loop works end to end on
// the scaled protocol and still produces a valid tour.
func TestRunClusterDeltaGossip(t *testing.T) {
	inst := tsp.Generate(tsp.FamilyUniform, 60, 3)
	ea := core.DefaultConfig()
	ea.CV, ea.CR, ea.KicksPerCall = 4, 16, 5
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res := RunCluster(ctx, inst, ClusterConfig{
		Nodes:    6,
		Topo:     topology.Ring,
		EA:       ea,
		Budget:   core.Budget{MaxIterations: 8},
		Seed:     3,
		Exchange: ExchangeConfig{Delta: true, Gossip: true, Fanout: 2, Coalesce: true, KeyframeEvery: 4},
	})
	if err := res.BestTour.Validate(inst.N()); err != nil {
		t.Fatalf("best tour invalid: %v", err)
	}
	var full, delta int64
	for _, c := range res.Counters {
		full += c.FullSends
		delta += c.DeltaSends
	}
	if full+delta == 0 {
		t.Fatal("no instrumented sends recorded")
	}
}

// tcpPair builds a connected 2-node TCP overlay with the given config
// and returns both nodes.
func tcpPair(t *testing.T, instN int, cfg TCPConfig) (*TCPNode, *TCPNode) {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", 2, topology.Ring)
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(context.Background())
	t.Cleanup(func() { hub.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	a, err := JoinTCPConfig(ctx, hub.Addr(), "127.0.0.1:0", instN, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := JoinTCPConfig(ctx, hub.Addr(), "127.0.0.1:0", instN, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	hub.Wait()
	if err := a.WaitPeers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitPeers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestTCPDeltaExchange: the delta protocol runs over real sockets —
// first send full, later sends as segment diffs, reconstruction exact.
func TestTCPDeltaExchange(t *testing.T) {
	const n = 70
	cfg := TCPConfig{Exchange: ExchangeConfig{Delta: true, KeyframeEvery: 32}}
	a, b := tcpPair(t, n, cfg)
	ctx := testCtx(t, 20*time.Second)

	rng := rand.New(rand.NewSource(37))
	cur := randTour(rng, n)
	for i := 0; i < 12; i++ {
		a.Broadcast(cur, int64(900-i))
		m := drainOne(ctx, t, b)
		if m.From != a.ID || m.Length != int64(900-i) {
			t.Fatalf("round %d: unexpected message from=%d len=%d", i, m.From, m.Length)
		}
		wantWire(t, fmt.Sprintf("round %d", i), m.Tour, cur)
		mutate(rng, cur, 2)
	}
	snap := a.Recorder().Snapshot()
	// 12 sends: only the first is full. One seeded mutation flips the
	// canonical orientation (a reversal through city 0's neighbourhood),
	// but the encoder diffs both orientations and keeps the small one,
	// so the flip still ships as a delta.
	if snap.FullSends != 1 || snap.DeltaSends != 11 {
		t.Fatalf("full=%d delta=%d, want 1/11", snap.FullSends, snap.DeltaSends)
	}
}

// TestTCPCoalesceOnReceive: TCP applies Coalesce where the other
// transports do, in the receiver's inbox. Three tours from one sender
// before a Drain leave the best queued, counted on the receiver.
func TestTCPCoalesceOnReceive(t *testing.T) {
	const n = 40
	a, b := tcpPair(t, n, TCPConfig{Exchange: ExchangeConfig{Coalesce: true}})
	ctx := testCtx(t, 20*time.Second)

	rng := rand.New(rand.NewSource(41))
	worse, better := randTour(rng, n), randTour(rng, n)
	a.Broadcast(worse, 800)
	a.Broadcast(better, 600) // replaces the queued tour
	a.Broadcast(worse, 700)  // loses to the queued best
	if !poll(ctx, func() bool { return b.Recorder().Snapshot().Coalesced == 2 }) {
		t.Fatalf("receiver coalesced %d tours, want 2", b.Recorder().Snapshot().Coalesced)
	}
	got := b.Drain()
	if len(got) != 1 || got[0].Length != 600 {
		t.Fatalf("drained %v, want the one best tour (600)", got)
	}
	for j := range better {
		if got[0].Tour[j] != better[j] {
			t.Fatalf("survivor tour differs at %d", j)
		}
	}
	if c := a.Recorder().Snapshot().Coalesced; c != 0 {
		t.Fatalf("sender counted %d coalesced tours, want 0", c)
	}
}

// TestTCPInboxOverflowCountsDrops: a TCP inbox drops what exceeds its
// capacity and counts each drop on the receiver, as ChanNetwork does.
func TestTCPInboxOverflowCountsDrops(t *testing.T) {
	const n = 10
	a, b := tcpPair(t, n, TCPConfig{})
	ctx := testCtx(t, 20*time.Second)

	tour := tsp.IdentityTour(n)
	for i := 0; i < InboxCapacity+10; i++ {
		a.Broadcast(tour, int64(i))
	}
	if !poll(ctx, func() bool { return b.Recorder().Snapshot().MsgDrops == 10 }) {
		t.Fatalf("receiver counted %d drops, want 10", b.Recorder().Snapshot().MsgDrops)
	}
	if got := b.Drain(); len(got) != InboxCapacity {
		t.Fatalf("drained %d, want %d", len(got), InboxCapacity)
	}
}
