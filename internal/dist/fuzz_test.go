package dist

import (
	"bytes"
	"testing"

	"distclk/internal/tsp"
)

// fuzzN is the instance size FuzzDecodeWireTour decodes against; its seed
// corpus (testdata/fuzz/FuzzDecodeWireTour) was encoded at this size.
const fuzzN = 12

// FuzzDecodeNeighbors feeds arbitrary hub replies, which whoever answers
// at the hub address controls, to decodeNeighbors. It must never panic,
// and every payload it accepts must re-encode to the same bytes. The seed
// corpus (testdata/fuzz/FuzzDecodeNeighbors) holds encodeNeighbors
// outputs and also runs in `go test`.
func FuzzDecodeNeighbors(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		id, total, ids, addrs, err := decodeNeighbors(data)
		if err != nil {
			return
		}
		if got := encodeNeighbors(id, total, ids, addrs); !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", got, data)
		}
	})
}

// FuzzDecodeWireTour feeds arbitrary msgTourFull (full = true) and
// msgTourDelta payloads to decodeWireTour. It must never panic, every
// payload it accepts must re-encode to the same frame, and a DeltaDecoder
// given the result must either refuse it or return a permutation. A delta
// is applied on top of a base at its own BaseGen, so its segments reach
// the decoder rather than stopping at the generation check. The seed
// corpus (testdata/fuzz/FuzzDecodeWireTour) holds full and delta
// encodeWireTour outputs.
func FuzzDecodeWireTour(f *testing.F) {
	f.Fuzz(func(t *testing.T, full bool, data []byte) {
		typ := msgTourDelta
		if full {
			typ = msgTourFull
		}
		w, err := decodeWireTour(typ, data, fuzzN)
		if err != nil {
			return
		}
		gotTyp, got := encodeWireTour(w)
		if gotTyp != typ || !bytes.Equal(got, data) {
			t.Fatalf("accepted frame re-encodes differently:\n got %d %x\nwant %d %x", gotTyp, got, typ, data)
		}
		var d DeltaDecoder
		if !w.Full {
			if _, ok := d.Decode(WireTour{Full: true, N: fuzzN, Gen: w.BaseGen, Tour: tsp.IdentityTour(fuzzN)}); !ok {
				t.Fatal("decoder refused the identity base tour")
			}
		}
		if tour, ok := d.Decode(w); ok {
			if err := tour.Validate(fuzzN); err != nil {
				t.Fatalf("decoder accepted a frame that is not a permutation: %v", err)
			}
		}
	})
}
