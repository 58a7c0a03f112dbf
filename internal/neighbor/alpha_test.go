package neighbor

import (
	"testing"

	"distclk/internal/tsp"
)

func TestAlphaCandidatesStructure(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 120, 1)
	cand, err := BuildAlpha(in, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if cand.N() != 120 {
		t.Fatalf("N = %d", cand.N())
	}
	if cand.K() < 5 {
		t.Fatalf("K = %d, want >= 5 (symmetrization can grow lists)", cand.K())
	}
	for c := int32(0); c < 120; c++ {
		for _, o := range cand.Of(c) {
			if o < 0 || o >= 120 {
				t.Fatalf("city %d has invalid candidate %d", c, o)
			}
		}
	}
}

func TestAlphaCandidatesSymmetric(t *testing.T) {
	in := tsp.Generate(tsp.FamilyClustered, 80, 3)
	cand, err := BuildAlpha(in, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Padding repeats entries, so check one-way membership modulo pads:
	// if j is a distinct candidate of i, i must appear among j's.
	for i := int32(0); i < 80; i++ {
		seen := map[int32]bool{}
		for _, j := range cand.Of(i) {
			if j == i || seen[j] {
				continue
			}
			seen[j] = true
			found := false
			for _, back := range cand.Of(j) {
				if back == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("candidate edge (%d,%d) not symmetric", i, j)
			}
		}
	}
}

func TestAlphaCandidatesTinyInstances(t *testing.T) {
	// k >= n-1 and very small n must not panic or produce self-loops.
	for _, n := range []int{4, 5, 8} {
		in := tsp.Generate(tsp.FamilyUniform, n, int64(n))
		cand, err := BuildAlpha(in, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		for c := int32(0); c < int32(n); c++ {
			for _, o := range cand.Of(c) {
				if o == c {
					t.Fatalf("n=%d: city %d lists itself", n, c)
				}
				if o < 0 || o >= int32(n) {
					t.Fatalf("n=%d: candidate %d out of range", n, o)
				}
			}
		}
	}
}

func TestAlphaTreeEdgesAreCandidates(t *testing.T) {
	// Alpha of a 1-tree edge is zero, so (almost) every tree edge should
	// appear in the candidate lists — this is what bridges clusters.
	in := tsp.Generate(tsp.FamilyClustered, 120, 5)
	cand, err := BuildAlpha(in, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Count how many cities have at least one candidate that is "far"
	// relative to their nearest neighbour — cluster bridges.
	dist := in.DistFunc()
	bridges := 0
	for c := int32(0); c < 120; c++ {
		list := cand.Of(c)
		nearest := dist(c, list[0])
		for _, o := range list {
			if dist(c, o) > 5*nearest && nearest > 0 {
				bridges++
				break
			}
		}
	}
	if bridges == 0 {
		t.Error("no long candidate edges at all — alpha lists degenerate to kNN")
	}
}
