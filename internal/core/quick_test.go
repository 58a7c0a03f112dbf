package core

import (
	"testing"
	"testing/quick"
	"time"

	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// TestPerturbationLevelFormulaProperty checks Figure 1's formula over the
// whole counter range: level = noImprove/cv + 1, always >= 1, monotone in
// noImprove, and restarts strictly beyond cr.
func TestPerturbationLevelFormulaProperty(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 1)
	cfg := DefaultConfig()
	cfg.CV = 7
	cfg.CR = 50
	node := NewNode(0, in, cfg, NopComm{}, 1)
	node.SeedBest()
	f := func(raw uint8) bool {
		noImp := int(raw) % 51 // stay at or below CR: no restart
		node.ForceNoImprove(noImp)
		node.Perturbate()
		want := noImp/7 + 1
		return node.PerturbLevel() == want && node.NoImprove() == noImp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAccounting: iterations, broadcasts and receive counts must be
// internally consistent after a run.
func TestStatsAccounting(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 80, 3)
	comm := &recordingComm{}
	cfg := DefaultConfig()
	cfg.KicksPerCall = 4
	node := NewNode(0, in, cfg, comm, 2)
	stats := node.Run(testCtx(t, 30*time.Second), Budget{MaxIterations: 8})
	if stats.Broadcasts != int64(len(comm.sent)) {
		t.Fatalf("stats.Broadcasts=%d, comm saw %d", stats.Broadcasts, len(comm.sent))
	}
	if stats.Iterations != 8 {
		t.Fatalf("iterations %d", stats.Iterations)
	}
	// Begin plus 8 iterations, each one KicksPerCall-kick round.
	if stats.Kicks != 9*4 {
		t.Fatalf("kicks %d, want %d", stats.Kicks, 9*4)
	}
	// Broadcast lengths must be non-increasing (only new bests are sent).
	for i := 1; i < len(comm.sent); i++ {
		if comm.sent[i] > comm.sent[i-1] {
			t.Fatalf("broadcast %d (%d) worse than previous (%d)",
				i, comm.sent[i], comm.sent[i-1])
		}
	}
}

// TestReceivedWorseToursIgnored: tours longer than the incumbent must not
// displace it.
func TestReceivedWorseToursIgnored(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 5)
	comm := &recordingComm{}
	cfg := DefaultConfig()
	cfg.KicksPerCall = 3
	node := NewNode(0, in, cfg, comm, 3)

	// A deliberately bad received tour: identity permutation.
	bad := tsp.IdentityTour(60)
	comm.pending = append(comm.pending, Incoming{From: 9, Tour: bad, Length: bad.Length(in)})
	node.Run(testCtx(t, 30*time.Second), Budget{MaxIterations: 2})
	_, best := node.Best()
	if best >= bad.Length(in) {
		t.Fatalf("node adopted a worse received tour: %d vs %d", best, bad.Length(in))
	}
}

// TestEventOrderingAndKinds: every event stream starts with the initial
// local improvement and contains only known kinds.
func TestEventOrderingAndKinds(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 60, 7)
	cfg := DefaultConfig()
	cfg.CV = 1 // escalate every iteration without improvement
	cfg.CR = 4
	cfg.KicksPerCall = 2
	node := NewNode(0, in, cfg, NopComm{}, 4)
	sink := observe(node)
	node.Run(testCtx(t, 30*time.Second), Budget{MaxIterations: 20})
	sawLevel := false
	for _, e := range sink.Events() {
		if e.Kind.String() == "unknown" {
			t.Fatalf("unknown event kind %d", e.Kind)
		}
		if e.Kind == obs.KindPerturbLevel {
			sawLevel = true
			if e.Value < 1 {
				t.Fatalf("perturbation level %d < 1", e.Value)
			}
		}
	}
	if !sawLevel {
		t.Error("aggressive cv=1 run never changed perturbation level")
	}
}

// TestNopComm covers the single-node communication stub.
func TestNopComm(t *testing.T) {
	var c NopComm
	c.Broadcast(tsp.Tour{0}, 1)
	c.AnnounceOptimum(1)
	if c.Drain() != nil || c.Stopped() {
		t.Fatal("NopComm misbehaves")
	}
}
