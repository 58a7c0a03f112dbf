package dist

import (
	"encoding/binary"
	"fmt"
	"io"

	"distclk/internal/tsp"
)

// Message type tags on the wire.
const (
	msgJoin      = byte(1) // node -> hub: listen address
	msgNeighbors = byte(2) // hub -> node: assigned id + neighbour addresses
	msgHello     = byte(3) // node -> node: sender id
	msgOptimum   = byte(5) // node -> node: target reached, shut down
	msgTourFull  = byte(6) // node -> node: generation-stamped full tour (delta protocol keyframe)
	msgTourDelta = byte(7) // node -> node: changed segments against a base generation
)

// maxFrame bounds accepted frame sizes (4 bytes per city on million-city
// instances plus headers fits comfortably).
const maxFrame = 1 << 26

// writeFrame emits [type][uint32 length][payload].
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame; it rejects oversized payloads.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if size > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// encodeWireTour serializes a delta-protocol message. Full tours
// (msgTourFull) carry [from u32][length u64][gen u32][n u32][cities];
// deltas (msgTourDelta) carry [from u32][length u64][gen u32]
// [basegen u32][segcount u32] then [pos u32][count u32][cities] per
// segment. Payload sizes match WireTour.WireBytes by construction, so
// obs byte counters and simnet bandwidth agree with real TCP frames.
func encodeWireTour(w WireTour) (byte, []byte) {
	if w.Full {
		buf := make([]byte, fullHeaderBytes+4*len(w.Tour))
		binary.LittleEndian.PutUint32(buf[0:], uint32(w.From))
		binary.LittleEndian.PutUint64(buf[4:], uint64(w.Length))
		binary.LittleEndian.PutUint32(buf[12:], w.Gen)
		binary.LittleEndian.PutUint32(buf[16:], uint32(len(w.Tour)))
		for i, c := range w.Tour {
			binary.LittleEndian.PutUint32(buf[fullHeaderBytes+4*i:], uint32(c))
		}
		return msgTourFull, buf
	}
	buf := make([]byte, 0, w.WireBytes())
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put32(uint32(w.From))
	binary.LittleEndian.PutUint64(tmp[:], uint64(w.Length))
	buf = append(buf, tmp[:]...)
	put32(w.Gen)
	put32(w.BaseGen)
	put32(uint32(len(w.Segs)))
	for _, s := range w.Segs {
		put32(uint32(s.Pos))
		put32(uint32(len(s.Cities)))
		for _, c := range s.Cities {
			put32(uint32(c))
		}
	}
	return msgTourDelta, buf
}

// decodeWireTour parses a msgTourFull/msgTourDelta payload. n is the
// expected instance size; deltas inherit it (their frames do not repeat
// it), and a full tour must be a permutation of it.
func decodeWireTour(typ byte, buf []byte, n int) (WireTour, error) {
	var w WireTour
	if typ == msgTourFull {
		if len(buf) < fullHeaderBytes {
			return w, fmt.Errorf("dist: short full-tour payload (%d bytes)", len(buf))
		}
		w.Full = true
		w.From = int(binary.LittleEndian.Uint32(buf[0:]))
		w.Length = int64(binary.LittleEndian.Uint64(buf[4:]))
		w.Gen = binary.LittleEndian.Uint32(buf[12:])
		w.N = int(binary.LittleEndian.Uint32(buf[16:]))
		if w.N != n || len(buf) != fullHeaderBytes+4*w.N {
			return w, fmt.Errorf("dist: full-tour payload size %d does not match n=%d", len(buf), w.N)
		}
		w.Tour = make(tsp.Tour, w.N)
		for i := range w.Tour {
			w.Tour[i] = int32(binary.LittleEndian.Uint32(buf[fullHeaderBytes+4*i:]))
		}
		if err := w.Tour.Validate(n); err != nil {
			return w, fmt.Errorf("dist: full-tour payload: %w", err)
		}
		return w, nil
	}
	if len(buf) < deltaHeaderBytes {
		return w, fmt.Errorf("dist: short delta payload (%d bytes)", len(buf))
	}
	w.From = int(binary.LittleEndian.Uint32(buf[0:]))
	w.Length = int64(binary.LittleEndian.Uint64(buf[4:]))
	w.Gen = binary.LittleEndian.Uint32(buf[12:])
	w.BaseGen = binary.LittleEndian.Uint32(buf[16:])
	segs := int(binary.LittleEndian.Uint32(buf[20:]))
	w.N = n
	off := deltaHeaderBytes
	for i := 0; i < segs; i++ {
		if off+segHeaderBytes > len(buf) {
			return w, fmt.Errorf("dist: truncated delta segment header")
		}
		pos := int32(binary.LittleEndian.Uint32(buf[off:]))
		count := int(binary.LittleEndian.Uint32(buf[off+4:]))
		off += segHeaderBytes
		if count < 0 || off+4*count > len(buf) {
			return w, fmt.Errorf("dist: truncated delta segment body")
		}
		cities := make([]int32, count)
		for j := range cities {
			cities[j] = int32(binary.LittleEndian.Uint32(buf[off+4*j:]))
		}
		off += 4 * count
		w.Segs = append(w.Segs, Seg{Pos: pos, Cities: cities})
	}
	if off != len(buf) {
		return w, fmt.Errorf("dist: delta payload has %d trailing bytes", len(buf)-off)
	}
	return w, nil
}

// encodeNeighbors serializes the hub's reply: assigned id, total expected
// nodes, and the neighbour list as (id, addr) pairs.
func encodeNeighbors(id, total int, ids []int, addrs []string) []byte {
	var buf []byte
	var tmp [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint32(id))
	put(uint32(total))
	put(uint32(len(ids)))
	for i := range ids {
		put(uint32(ids[i]))
		put(uint32(len(addrs[i])))
		buf = append(buf, addrs[i]...)
	}
	return buf
}

// decodeNeighbors parses the hub's reply; it rejects truncated and
// over-long payloads.
func decodeNeighbors(buf []byte) (id, total int, ids []int, addrs []string, err error) {
	off := 0
	get := func() (uint32, error) {
		if off+4 > len(buf) {
			return 0, fmt.Errorf("dist: truncated neighbour payload")
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	var v uint32
	if v, err = get(); err != nil {
		return
	}
	id = int(v)
	if v, err = get(); err != nil {
		return
	}
	total = int(v)
	if v, err = get(); err != nil {
		return
	}
	count := int(v)
	for i := 0; i < count; i++ {
		if v, err = get(); err != nil {
			return
		}
		ids = append(ids, int(v))
		if v, err = get(); err != nil {
			return
		}
		alen := int(v)
		if off+alen > len(buf) {
			err = fmt.Errorf("dist: truncated neighbour address")
			return
		}
		addrs = append(addrs, string(buf[off:off+alen]))
		off += alen
	}
	if off != len(buf) {
		err = fmt.Errorf("dist: neighbour payload has %d trailing bytes", len(buf)-off)
	}
	return
}
