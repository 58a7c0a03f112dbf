package distclk

import (
	"context"
	"testing"
	"time"

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
