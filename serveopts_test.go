package distclk

import (
	"context"
	"testing"
	"time"

	"distclk/internal/clk"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
)

// WithEventSink must deliver the raw event stream — including the
// kick-level kinds the in-memory collector filters out — while the solve
// still returns a valid result.
func TestWithEventSinkSeesKickLevelEvents(t *testing.T) {
	in, _ := Generate("uniform", 120, 3)
	sink := obs.NewMemorySink()
	s, err := New(in,
		WithEventSink(sink),
		WithMaxKicks(50),
		WithBudget(5*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	kickLevel := 0
	for _, e := range sink.Events() {
		if !e.Kind.EALevel() {
			kickLevel++
		}
	}
	if kickLevel == 0 {
		t.Fatalf("event sink saw no kick-level events across %d events", sink.Len())
	}
}

// WithScratch must recycle the CSR candidate table across sequential
// solves (pool hit via pointer identity) and keep results byte-identical
// to a scratch-free solve with the same seed.
func TestWithScratchRecyclesAndMatchesFresh(t *testing.T) {
	in, _ := Generate("clustered", 200, 4)
	opts := func(extra ...Option) []Option {
		return append([]Option{WithMaxKicks(30), WithSeed(11), WithBudget(5 * time.Second)}, extra...)
	}
	plain, err := New(in, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plain.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sc := &clk.Scratch{}
	var firstCSR *int32
	for round := 0; round < 3; round++ {
		s, err := New(in, opts(WithScratch(sc))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Length != fresh.Length {
			t.Fatalf("round %d: scratch solve length %d differs from fresh %d", round, res.Length, fresh.Length)
		}
		for i, c := range res.Tour {
			if c != fresh.Tour[i] {
				t.Fatalf("round %d: tour diverges at %d", round, i)
			}
		}
		probe := probeCSR(t, sc, in)
		if firstCSR == nil {
			firstCSR = probe
		} else if probe != firstCSR {
			t.Fatalf("round %d: CSR arrays re-allocated instead of recycled", round)
		}
	}
}

// probeCSR builds a candidate table from the scratch's storage and
// returns the address of its first payload element — stable across
// rounds exactly when the storage recycles its backing arrays.
func probeCSR(t *testing.T, sc *clk.Scratch, in *Instance) *int32 {
	t.Helper()
	l := neighbor.BuildWith(sc.CSR(), in, 8)
	if !sc.CSR().Owns(l) {
		t.Fatalf("scratch storage did not back the probe build")
	}
	return &l.Of(0)[0]
}

func TestWithScratchComboValidation(t *testing.T) {
	in, _ := Generate("uniform", 30, 5)
	sc := &clk.Scratch{}
	if _, err := New(in, WithScratch(sc), WithNodes(2)); err == nil {
		t.Error("WithScratch accepted alongside WithNodes")
	}
	if _, err := New(in, WithScratch(sc), WithWorkers(2)); err == nil {
		t.Error("WithScratch accepted alongside WithWorkers(2)")
	}
	if _, err := New(in, WithScratch(sc), WithWorkers(0)); err == nil {
		t.Error("WithScratch accepted alongside auto worker sizing")
	}
	if _, err := New(in, WithScratch(nil)); err == nil {
		t.Error("nil scratch accepted")
	}
	if _, err := New(in, WithEventSink(nil)); err == nil {
		t.Error("nil event sink accepted")
	}
}
