package distclk

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"distclk/internal/exact"
	"distclk/internal/tsp"
)

func TestGenerateFamilies(t *testing.T) {
	for _, fam := range []string{"uniform", "clustered", "drill", "grid", "national"} {
		in, err := Generate(fam, 100, 1)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if in.N() != 100 {
			t.Fatalf("%s: n=%d", fam, in.N())
		}
	}
	if _, err := Generate("noise", 100, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	in, _ := Generate("uniform", 25, 1)
	path := filepath.Join(t.TempDir(), "t.tsp")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tsp.WriteTSPLIB(f, in); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 25 {
		t.Fatalf("loaded n=%d", got.N())
	}
}

func TestSolveCLKFindsOptimum(t *testing.T) {
	in, _ := Generate("uniform", 15, 2)
	_, opt, err := exact.HeldKarp(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(in, WithTarget(opt), WithBudget(20*time.Second), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != opt {
		t.Fatalf("CLK %d, optimum %d", res.Length, opt)
	}
	if err := res.Tour.Validate(15); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDistributedFindsOptimum(t *testing.T) {
	in, _ := Generate("clustered", 14, 4)
	_, opt, err := exact.HeldKarp(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(in, WithNodes(4), WithTarget(opt), WithBudget(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != opt {
		t.Fatalf("DistCLK %d, optimum %d", res.Length, opt)
	}
	if res.Nodes != 4 {
		t.Fatalf("nodes = %d", res.Nodes)
	}
}

func TestOptionsValidation(t *testing.T) {
	in, _ := Generate("uniform", 30, 5)
	if _, err := New(in, WithKick("sideways")); err == nil {
		t.Error("bad kick accepted")
	}
	if _, err := New(in, WithBudget(-time.Second)); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := New(in, WithNodes(0)); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(in, WithNodes(2), WithTopology("mesh")); err == nil {
		t.Error("bad topology accepted")
	}
	if _, err := New(in, WithNodes(2), WithEAParameters(0, 5)); err == nil {
		t.Error("bad EA parameters accepted")
	}
	if _, err := New(in, WithMaxKicks(-1)); err == nil {
		t.Error("negative max kicks accepted")
	}
	if _, err := New(in, WithTarget(-5)); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := New(in, WithProgressInterval(0)); err == nil {
		t.Error("zero progress interval accepted")
	}
	if _, err := New(in, WithEventSink(nil)); err == nil {
		t.Error("nil event sink accepted")
	}
	if _, err := New(in, WithKicksPerCall(0)); err == nil {
		t.Error("zero kicks per call accepted")
	}
	if _, err := New(in, WithTourDiff(-1)); err == nil {
		t.Error("negative keyframe interval accepted")
	}
	if _, err := New(in, WithNodes(2), WithGossip(0)); err == nil {
		t.Error("zero gossip fanout accepted")
	}
	if _, err := New(in, WithTourDiff(8)); err == nil {
		t.Error("WithTourDiff accepted without WithNodes")
	}
	if _, err := New(in, WithGossip(3)); err == nil {
		t.Error("WithGossip accepted without WithNodes")
	}
	if _, err := New(in, WithBatching()); err == nil {
		t.Error("WithBatching accepted without WithNodes")
	}
}

func TestAllOptionsApply(t *testing.T) {
	in, _ := Generate("uniform", 40, 6)
	s, err := New(in, WithNodes(2),
		WithKick("geometric"),
		WithKicksPerCall(50),
		WithSeed(9),
		WithTopology("ring"),
		WithEAParameters(32, 128),
		WithWorkers(2),
		WithBudget(500*time.Millisecond),
		WithTourDiff(16),
		WithGossip(1),
		WithBatching(),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tour.Validate(40); err != nil {
		t.Fatal(err)
	}
}

func TestStandInFacade(t *testing.T) {
	in, err := StandIn("pr2392", 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 2392 {
		t.Fatalf("n=%d", in.N())
	}
}
