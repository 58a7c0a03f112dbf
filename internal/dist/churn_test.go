package dist

import (
	"context"
	"testing"
	"time"

	"distclk/internal/topology"
	"distclk/internal/tsp"
)

// TestHeterogeneousNodeLifetimes lives in lifetimes_ext_test.go (external
// test package): it drives simnet, which imports dist for the exchange
// protocol, so it cannot live in package dist without an import cycle.

// TestTCPPeerDeath kills one TCP node mid-run; the survivors must drop the
// dead peer and keep exchanging.
func TestTCPPeerDeath(t *testing.T) {
	const nodes = 3
	in := tsp.Generate(tsp.FamilyUniform, 40, 33)
	ctx := testCtx(t, 30*time.Second)

	hub, err := NewHub("127.0.0.1:0", nodes, topology.Complete)
	if err != nil {
		t.Fatal(err)
	}
	// Short I/O timeout so the write to the dead peer errors quickly.
	hub.SetIOTimeout(2 * time.Second)
	go hub.Serve(context.Background())
	defer hub.Close()

	tcpNodes := make([]*TCPNode, nodes)
	for i := range tcpNodes {
		n, err := JoinTCPConfig(ctx, hub.Addr(), "127.0.0.1:0", in.N(),
			TCPConfig{IOTimeout: 2 * time.Second}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tcpNodes[i] = n
	}
	hub.Wait()
	for i, n := range tcpNodes {
		if err := n.WaitPeers(ctx, nodes-1); err != nil {
			t.Fatalf("node %d peers never connected: %v", i, err)
		}
	}

	// Kill node 2.
	tcpNodes[2].Close()

	// Broadcast from node 0: node 1 receives; the write to the dead peer
	// eventually errors and removes it without wedging the sender.
	tour := tsp.IdentityTour(in.N())
	tcpNodes[0].Broadcast(tour, 7)
	if msg := drainOne(ctx, t, tcpNodes[1]); msg.From != tcpNodes[0].ID || msg.Length != 7 {
		t.Fatalf("survivor got unexpected message %v", msg)
	}
	tcpNodes[0].Close()
	tcpNodes[1].Close()
}

// TestTCPDuplicateOptimumAnnouncements checks the flood guard: multiple
// announcements must not loop forever.
func TestTCPDuplicateOptimumAnnouncements(t *testing.T) {
	const nodes = 3
	ctx := testCtx(t, 30*time.Second)
	hub, err := NewHub("127.0.0.1:0", nodes, topology.Complete)
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(context.Background())
	defer hub.Close()

	tcpNodes := make([]*TCPNode, nodes)
	for i := range tcpNodes {
		n, err := JoinTCP(ctx, hub.Addr(), "127.0.0.1:0", 10)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		tcpNodes[i] = n
	}
	hub.Wait()
	for i, n := range tcpNodes {
		if err := n.WaitPeers(ctx, nodes-1); err != nil {
			t.Fatalf("node %d peers never connected: %v", i, err)
		}
	}

	// Two nodes announce simultaneously.
	tcpNodes[0].AnnounceOptimum(100)
	tcpNodes[1].AnnounceOptimum(100)
	for i, n := range tcpNodes {
		if !poll(ctx, n.Stopped) {
			t.Fatalf("optimum flood did not reach node %d", i)
		}
	}
}
