package lk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"distclk/internal/tsp"
)

func edgeSet(t *ArrayTour) map[[2]int32]bool {
	set := make(map[[2]int32]bool)
	n := int32(t.N())
	for i := int32(0); i < n; i++ {
		a, b := t.At(i), t.At((i+1)%n)
		if a > b {
			a, b = b, a
		}
		set[[2]int32{a, b}] = true
	}
	return set
}

func sameEdges(a, b map[[2]int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

func TestArrayTourBasics(t *testing.T) {
	at := NewArrayTour(tsp.Tour{3, 1, 4, 0, 2})
	if at.N() != 5 {
		t.Fatalf("N = %d, want 5", at.N())
	}
	if got := at.Next(3); got != 1 {
		t.Errorf("Next(3) = %d, want 1", got)
	}
	if got := at.Prev(3); got != 2 {
		t.Errorf("Prev(3) = %d, want 2", got)
	}
	if got := at.Next(2); got != 3 {
		t.Errorf("Next(2) = %d, want 3 (wrap)", got)
	}
	if got := at.Pos(4); got != 2 {
		t.Errorf("Pos(4) = %d, want 2", got)
	}
}

func TestArrayTourFlipSmall(t *testing.T) {
	at := NewArrayTour(tsp.Tour{0, 1, 2, 3, 4, 5})
	at.Flip(1, 4) // reverse 1..4 -> 0 4 3 2 1 5
	want := tsp.Tour{0, 4, 3, 2, 1, 5}
	got := at.Tour()
	wantSet := edgeSet(NewArrayTour(want))
	if !sameEdges(edgeSet(at), wantSet) {
		t.Fatalf("Flip(1,4) = %v, want cycle of %v", got, want)
	}
	// Positions must stay consistent.
	for i := int32(0); i < 6; i++ {
		if at.At(at.Pos(i)) != i {
			t.Fatalf("pos/order inconsistent for city %d", i)
		}
	}
}

func TestArrayTourFlipUndo(t *testing.T) {
	// The inverse of a flip must be derived from a reference edge because
	// shorter-side flips can mirror the stored orientation: with u=Prev(a)
	// recorded before Flip(a,b), the undo is Flip(b,a) when Next(u)==b
	// afterwards, else Flip(a,b).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(30)
		perm := tsp.IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		at := NewArrayTour(perm)
		before := edgeSet(at)
		a := int32(rng.Intn(n))
		b := int32(rng.Intn(n))
		if a == b || at.Prev(a) == b {
			continue // identity or full-cycle flip; nothing to undo
		}
		u := at.Prev(a)
		at.Flip(a, b)
		if err := at.Tour().Validate(n); err != nil {
			t.Fatalf("flip broke permutation: %v", err)
		}
		if at.Next(u) == b {
			at.Flip(b, a)
		} else {
			at.Flip(a, b)
		}
		if !sameEdges(edgeSet(at), before) {
			t.Fatalf("orientation-aware undo of Flip(%d,%d) failed (n=%d)", a, b, n)
		}
	}
}

func TestArrayTourFlipMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(20)
		perm := tsp.IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		at := NewArrayTour(perm)
		a := int32(rng.Intn(n))
		b := int32(rng.Intn(n))

		// Naive reference: reverse forward segment a..b on a copy.
		ref := NewArrayTour(perm)
		var seg []int32
		for c := a; ; c = ref.Next(c) {
			seg = append(seg, c)
			if c == b {
				break
			}
		}
		naive := perm.Clone()
		pos := make(map[int32]int)
		for i, c := range naive {
			pos[c] = i
		}
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			pi, pj := pos[seg[i]], pos[seg[j]]
			naive[pi], naive[pj] = naive[pj], naive[pi]
			pos[seg[i]], pos[seg[j]] = pj, pi
		}

		at.Flip(a, b)
		if !sameEdges(edgeSet(at), edgeSet(NewArrayTour(naive))) {
			t.Fatalf("Flip(%d,%d) on %v: got cycle %v, want %v", a, b, perm, at.Tour(), naive)
		}
	}
}

// naiveFlip reverses the forward segment a..b of perm by the textbook
// definition, ignoring the shorter-side optimization — the oracle the
// property tests compare Flip against.
func naiveFlip(perm tsp.Tour, a, b int32) tsp.Tour {
	ref := NewArrayTour(perm)
	var seg []int32
	for c := a; ; c = ref.Next(c) {
		seg = append(seg, c)
		if c == b {
			break
		}
	}
	out := perm.Clone()
	pos := make(map[int32]int)
	for i, c := range out {
		pos[c] = i
	}
	for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
		pi, pj := pos[seg[i]], pos[seg[j]]
		out[pi], out[pj] = out[pj], out[pi]
		pos[seg[i]], pos[seg[j]] = pj, pi
	}
	return out
}

// TestArrayTourFlipWrapAround pins the cases the shorter-side substitution
// must get right: segments crossing the array end, segments whose
// complement is the shorter side (so the complement is reversed instead),
// and the exact-half split where either side may be chosen.
func TestArrayTourFlipWrapAround(t *testing.T) {
	cases := []struct {
		name string
		n    int
		a, b int32
	}{
		{"wraps-array-end", 8, 6, 2},     // forward segment 6,7,0,1,2 wraps
		{"complement-shorter", 10, 1, 8}, // 8-city segment: complement side reversed
		{"wrap-and-longer", 9, 7, 5},     // wrapping and longer than complement
		{"exact-half", 8, 2, 5},          // both sides length 4
		{"two-cities", 6, 5, 0},          // minimal wrapping segment
		{"all-but-one", 7, 1, 6},         // complement is a single city
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perm := tsp.IdentityTour(tc.n)
			at := NewArrayTour(perm)
			want := naiveFlip(perm, tc.a, tc.b)
			at.Flip(tc.a, tc.b)
			if !sameEdges(edgeSet(at), edgeSet(NewArrayTour(want))) {
				t.Fatalf("Flip(%d,%d) on n=%d: got cycle %v, want %v", tc.a, tc.b, tc.n, at.Tour(), want)
			}
			for c := int32(0); c < int32(tc.n); c++ {
				if at.At(at.Pos(c)) != c {
					t.Fatalf("pos/order inconsistent for city %d", c)
				}
			}
		})
	}
}

// TestArrayTourFlipShorterSideProperty drives random flips whose forward
// segment is deliberately the *longer* side, so every iteration exercises
// the complement-reversal path, and checks the cycle against the naive
// oracle.
func TestArrayTourFlipShorterSideProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		n := 5 + rng.Intn(40)
		perm := tsp.IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		at := NewArrayTour(perm)
		// Pick a forward segment longer than n/2 (position span > n/2).
		pa := int32(rng.Intn(n))
		span := int32(n/2 + 1 + rng.Intn(n-n/2-1))
		pb := (pa + span) % int32(n)
		a, b := at.At(pa), at.At(pb)
		want := naiveFlip(perm, a, b)
		at.Flip(a, b)
		if !sameEdges(edgeSet(at), edgeSet(NewArrayTour(want))) {
			t.Fatalf("long-side Flip(%d,%d) on %v: got %v, want %v", a, b, perm, at.Tour(), want)
		}
	}
}

func TestArrayTourSetSeg(t *testing.T) {
	at := NewArrayTour(tsp.Tour{0, 1, 2, 3, 4, 5})
	// Rewrite positions 1..4 with the same cities in a new order.
	at.SetSeg(1, []int32{4, 3, 1, 2})
	want := tsp.Tour{0, 4, 3, 1, 2, 5}
	got := at.Tour()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SetSeg result %v, want %v", got, want)
		}
	}
	for c := int32(0); c < 6; c++ {
		if at.At(at.Pos(c)) != c {
			t.Fatalf("pos/order inconsistent for city %d after SetSeg", c)
		}
	}
}

// TestFlipSequenceStaysPermutation is the property test: any sequence of
// flips leaves a valid permutation with consistent pos/order arrays.
func TestFlipSequenceStaysPermutation(t *testing.T) {
	f := func(seedRaw int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 3 + rng.Intn(40)
		perm := tsp.IdentityTour(n)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		at := NewArrayTour(perm)
		for _, op := range opsRaw {
			a := int32(int(op) % n)
			b := int32(int(op>>8) % n)
			at.Flip(a, b)
		}
		if err := at.Tour().Validate(n); err != nil {
			return false
		}
		for c := int32(0); c < int32(n); c++ {
			if at.At(at.Pos(c)) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
