package dist

import (
	"distclk/internal/tsp"
)

// Tour-diff broadcast: after the first exchange, consecutive tours on a
// (sender → peer) stream differ only where kicks and LK moves touched
// them, so the transports send just the changed position runs — the wire
// form of lk.ArrayTour.SetSeg — against the peer's last-known
// generation. Tours are canonicalized (tsp.Tour.Canonical: city 0 first,
// fixed orientation) before diffing: the LK engine hands out arrays with
// arbitrary rotation and direction, so without the normalization two
// nearly identical cycles can disagree at every single position and the
// diff degenerates to a full tour. Every stream falls back to a full tour
// on first contact, on a keyframe cadence, whenever the diff would not be
// smaller, and after a restart (Exchange.Restart) or TCP reconnect
// (Exchange.Forget); a delta that reaches a receiver without its base
// shows up as a generation gap that the next keyframe heals. The codec
// is transport-agnostic: every transport runs it through the node's
// Exchange, which is why simnet's fault matrix doubles as the
// wire-protocol harness.

// ExchangeConfig selects how tours travel between nodes. The zero value
// is the full-tour protocol — full tour to every topology neighbour on
// every broadcast. Exchange applies it.
type ExchangeConfig struct {
	// Delta turns on tour-diff broadcast with full-tour fallback.
	Delta bool
	// KeyframeEvery forces a full tour every K sends per peer stream so
	// gap-stalled receivers resync (0 = DefaultKeyframe).
	KeyframeEvery int
	// Gossip replaces fixed-neighbour push with random peer sampling:
	// each broadcast goes to Fanout peers drawn uniformly from the whole
	// cluster. Topology still defines the id space; it no longer bounds
	// who talks to whom.
	Gossip bool
	// Fanout is the number of peers sampled per gossip broadcast
	// (0 = DefaultFanout). Ignored unless Gossip is set.
	Fanout int
	// Coalesce merges queued undrained tours per sender in the
	// receiver's inbox, keeping only the best — the batching window is
	// "until the receiver next drains", which bounds inbox growth at high
	// node counts (cmd/distclk -batch).
	Coalesce bool
}

// Defaults for ExchangeConfig's zero fields.
const (
	DefaultKeyframe = 64
	DefaultFanout   = 3
)

// Keyframe returns the effective keyframe cadence.
func (ex ExchangeConfig) Keyframe() int {
	if ex.KeyframeEvery > 0 {
		return ex.KeyframeEvery
	}
	return DefaultKeyframe
}

// GossipFanout returns the effective gossip fanout.
func (ex ExchangeConfig) GossipFanout() int {
	if ex.Fanout > 0 {
		return ex.Fanout
	}
	return DefaultFanout
}

// Seg is one run of consecutive tour positions overwritten by a delta —
// exactly the (start, cities) pair lk.ArrayTour.SetSeg applies.
type Seg struct {
	Pos    int32
	Cities []int32
}

// Wire-size model, shared by the TCP serializer, simnet's bandwidth
// accounting, and the obs byte counters so "bytes on wire" means the
// same thing everywhere.
const (
	fullHeaderBytes  = 20 // from u32 + length u64 + gen u32 + n u32
	deltaHeaderBytes = 24 // from u32 + length u64 + gen u32 + basegen u32 + segcount u32 ... (n implicit)
	segHeaderBytes   = 8  // pos u32 + count u32
)

// FullWireBytes is the encoded size of a full n-city tour message — what
// the legacy protocol charges for every exchange, and the fallback cost a
// delta must beat to go on the wire.
func FullWireBytes(n int) int { return fullHeaderBytes + 4*n }

// WireTour is one encoded exchange message: either a whole tour (Full)
// or the segment diff against the sender's previous generation.
type WireTour struct {
	From    int
	Length  int64
	N       int
	Gen     uint32 // generation this message produces
	BaseGen uint32 // generation a delta applies on top of
	Full    bool
	Tour    tsp.Tour // Full payload; treated as immutable once encoded
	Segs    []Seg    // delta payload; cities alias the encoder's snapshot
}

// WireBytes is the encoded payload size, the unit the obs counters and
// simnet's bandwidth model charge.
func (w *WireTour) WireBytes() int {
	if w.Full {
		return fullHeaderBytes + 4*w.N
	}
	b := deltaHeaderBytes
	for _, s := range w.Segs {
		b += segHeaderBytes + 4*len(s.Cities)
	}
	return b
}

// diffSegs returns the position runs where cur differs from old, merging
// runs separated by ≤2 equal positions (a seg header costs 8 bytes, two
// repeated cities cost the same — merging never loses and keeps the seg
// count low). Returned cities alias cur.
func diffSegs(old, cur tsp.Tour) []Seg {
	var segs []Seg
	i := 0
	for i < len(cur) {
		if cur[i] == old[i] {
			i++
			continue
		}
		start := i
		end := i + 1 // one past the last mismatch in this run
		for j := i + 1; j < len(cur); j++ {
			if cur[j] != old[j] {
				end = j + 1
				continue
			}
			// Equal position: close the run only if the next mismatch is
			// more than 2 equal positions away.
			if j-end >= 2 {
				break
			}
		}
		segs = append(segs, Seg{Pos: int32(start), Cities: cur[start:end]})
		i = end
	}
	return segs
}

// segBytes is the wire cost of a segment list alone, used to compare
// candidate diffs before a WireTour is committed.
func segBytes(segs []Seg) int {
	b := 0
	for _, s := range segs {
		b += segHeaderBytes + 4*len(s.Cities)
	}
	return b
}

// DeltaEncoder holds the sender side of one (sender → peer) stream: the
// last tour put on that wire and its generation. The zero value is
// ready; the first Encode emits a full tour.
type DeltaEncoder struct {
	last      tsp.Tour
	gen       uint32
	sinceFull int
}

// reversed returns the other traversal orientation of a canonical tour:
// city 0 stays first, the rest of the cycle is walked backwards. Both
// orientations are the same Hamiltonian cycle at the same length.
func reversed(c tsp.Tour) tsp.Tour {
	n := len(c)
	out := make(tsp.Tour, n)
	if n == 0 {
		return out
	}
	out[0] = c[0]
	for i := 1; i < n; i++ {
		out[i] = c[n-i]
	}
	return out
}

// Encode turns (t, length) into the next message for this stream,
// choosing delta vs full per the fallback rules. It snapshots t in
// canonical form (receivers reconstruct the same cycle at the same
// length, normalized to start at city 0), so the caller may keep
// mutating its tour. When the previous snapshot exists the encoder
// diffs both traversal orientations against it and keeps the smaller:
// a kick or LK move through city 0's neighbourhood flips which
// orientation tsp.Tour.Canonical picks, and without the second diff
// that flip masquerades as a whole-tour change.
func (e *DeltaEncoder) Encode(from int, t tsp.Tour, length int64, keyframe int) WireTour {
	w := WireTour{From: from, Length: length, N: len(t)}
	snap := t.Canonical()
	full := e.last == nil || len(e.last) != len(t) || e.sinceFull >= keyframe
	if !full {
		w.Segs = diffSegs(e.last, snap)
		w.BaseGen = e.gen
		rev := reversed(snap)
		if rsegs := diffSegs(e.last, rev); segBytes(rsegs) < segBytes(w.Segs) {
			snap, w.Segs = rev, rsegs
		}
		if w.WireBytes() >= fullHeaderBytes+4*w.N {
			full = true
			w.Segs = nil
		}
	}
	e.gen++
	w.Gen = e.gen
	if full {
		w.Full = true
		w.Tour = snap
		e.sinceFull = 0
	} else {
		e.sinceFull++
	}
	e.last = snap
	return w
}

// DeltaDecoder holds the receiver side of one (sender → receiver)
// stream. The zero value is ready; it discards deltas until the first
// full tour arrives.
type DeltaDecoder struct {
	last tsp.Tour
	gen  uint32
	seen []bool // permutation-check scratch
}

// Decode reconstructs the sender's tour from w. The returned tour is an
// independent copy the caller owns. ok is false on a generation gap —
// the delta's base is not the state this decoder holds (loss, reorder,
// duplicate, or restart) — or on a corrupt payload; the message must
// then be discarded and the stream heals at the sender's next full tour.
func (d *DeltaDecoder) Decode(w WireTour) (t tsp.Tour, ok bool) {
	if w.Full {
		if !d.validPerm(w.Tour) {
			return nil, false
		}
		d.last = w.Tour.Clone()
		d.gen = w.Gen
		return d.last.Clone(), true
	}
	if d.last == nil || len(d.last) != w.N || w.BaseGen != d.gen {
		return nil, false
	}
	next := d.last.Clone()
	for _, s := range w.Segs {
		if s.Pos < 0 || int(s.Pos)+len(s.Cities) > len(next) {
			return nil, false
		}
		copy(next[s.Pos:], s.Cities) // ArrayTour.SetSeg semantics
	}
	if !d.validPerm(next) {
		// A delta that passed the generation check but broke the
		// permutation means corruption; drop the stream state so later
		// deltas gap until a full tour restores a trusted base.
		d.last = nil
		return nil, false
	}
	d.last = next
	d.gen = w.Gen
	return next.Clone(), true
}

// Generation returns the decoder's current stream generation.
func (d *DeltaDecoder) Generation() uint32 { return d.gen }

func (d *DeltaDecoder) validPerm(t tsp.Tour) bool {
	if len(d.seen) != len(t) {
		d.seen = make([]bool, len(t))
	}
	for i := range d.seen {
		d.seen[i] = false
	}
	for _, c := range t {
		if c < 0 || int(c) >= len(t) || d.seen[c] {
			return false
		}
		d.seen[c] = true
	}
	return true
}
