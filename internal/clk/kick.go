package clk

import (
	"fmt"
	"math/rand"

	"distclk/internal/lk"
	"distclk/internal/neighbor"
)

// KickStrategy selects how the four double-bridge cities are chosen.
type KickStrategy int

const (
	// KickRandom picks the four cities uniformly at random.
	KickRandom KickStrategy = iota
	// KickGeometric picks a random city v and the other three from v's k
	// nearest neighbours, giving a spatially local kick.
	KickGeometric
	// KickClose samples a subset of size beta*n, then picks the other
	// three cities from the six subset members nearest to v.
	KickClose
	// KickRandomWalk starts three independent random walks on the
	// neighbour graph from v; the walk endpoints are the other cities.
	KickRandomWalk
)

// String names the strategy as in the paper.
func (k KickStrategy) String() string {
	switch k {
	case KickRandom:
		return "random"
	case KickGeometric:
		return "geometric"
	case KickClose:
		return "close"
	case KickRandomWalk:
		return "random-walk"
	}
	return "unknown"
}

// AllKickStrategies lists the four strategies in paper order.
var AllKickStrategies = []KickStrategy{KickRandom, KickGeometric, KickClose, KickRandomWalk}

// ParseKick maps a strategy name to its constant.
func ParseKick(s string) (KickStrategy, error) {
	for _, k := range AllKickStrategies {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("clk: unknown kick strategy %q", s)
}

// Kick strategy constants.
const (
	// geomK is the neighbourhood size for the Geometric strategy.
	geomK = 16
	// closeBeta is the subset fraction beta for the Close strategy.
	closeBeta = 0.10
	// walkLen is the number of steps per random walk for Random-walk.
	walkLen = 30
)

// kicker selects double-bridge cities and applies the move. All scratch
// buffers live on the kicker so steady-state kicking allocates nothing.
type kicker struct {
	strategy KickStrategy
	nbr      *neighbor.Lists
	rng      *rand.Rand
	dist     func(i, j int32) int64

	subset []int32  // scratch for Close
	perm   []int32  // scratch for pickDistinct's shuffle
	six    [6]int32 // scratch for Close's nearest-subset selection
	segBuf []int32  // scratch for the double-bridge segment rewrite
}

// selectCities returns four distinct cities per the strategy.
//
//distlint:hotpath
func (k *kicker) selectCities(n int) [4]int32 {
	var cs [4]int32
	switch k.strategy {
	case KickRandom:
		k.distinctRandom(n, cs[:])
	case KickGeometric:
		v := int32(k.rng.Intn(n))
		cs[0] = v
		cand := k.nbr.Of(v)
		kk := geomK
		if kk > len(cand) {
			kk = len(cand)
		}
		k.pickDistinct(cand[:kk], cs[:], n)
	case KickClose:
		v := int32(k.rng.Intn(n))
		cs[0] = v
		size := int(closeBeta * float64(n))
		if size < 8 {
			size = 8
		}
		if size > n-1 {
			size = n - 1
		}
		k.subset = k.subset[:0]
		for len(k.subset) < size {
			c := int32(k.rng.Intn(n))
			if c != v {
				k.subset = append(k.subset, c)
			}
		}
		// Six subset members nearest to v.
		six := k.nearestSix(k.subset, v)
		k.pickDistinct(six, cs[:], n)
	case KickRandomWalk:
		v := int32(k.rng.Intn(n))
		cs[0] = v
		for i := 1; i < 4; i++ {
			e := k.walk(v)
			// Ensure distinctness; fall back to random cities.
			for tries := 0; contains(cs[:i], e) || e == v; tries++ {
				if tries > 8 {
					e = int32(k.rng.Intn(n))
					continue
				}
				e = k.walk(v)
			}
			cs[i] = e
		}
	}
	return cs
}

// distinctRandom fills out with distinct random cities.
//
//distlint:hotpath
func (k *kicker) distinctRandom(n int, out []int32) {
	for i := range out {
		for {
			c := int32(k.rng.Intn(n))
			if !contains(out[:i], c) {
				out[i] = c
				break
			}
		}
	}
}

// shuffled returns a random permutation of 0..m-1 in a reusable buffer
// (rand.Perm allocates; the kick loop must not).
//
//distlint:hotpath
func (k *kicker) shuffled(m int) []int32 {
	if cap(k.perm) < m {
		//lint:ignore hotpathalloc one-time growth to the largest candidate list; steady-state kicks reuse the buffer
		k.perm = make([]int32, m)
	}
	p := k.perm[:m]
	for i := range p {
		p[i] = int32(i)
	}
	for i := m - 1; i > 0; i-- {
		j := k.rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pickDistinct fills out[1:] with distinct members of cand not equal to
// out[0], topping up with random cities if cand is too small.
//
//distlint:hotpath
func (k *kicker) pickDistinct(cand []int32, out []int32, n int) {
	idx := k.shuffled(len(cand))
	j := 0
	for i := 1; i < len(out); i++ {
		out[i] = -1
		for ; j < len(idx); j++ {
			c := cand[idx[j]]
			if c != out[0] && !contains(out[1:i], c) {
				out[i] = c
				j++
				break
			}
		}
		if out[i] < 0 {
			for {
				c := int32(k.rng.Intn(n))
				if !contains(out[:i], c) {
					out[i] = c
					break
				}
			}
		}
	}
}

//distlint:hotpath
func (k *kicker) walk(from int32) int32 {
	c := from
	for i := 0; i < walkLen; i++ {
		nb := k.nbr.Of(c)
		c = nb[k.rng.Intn(len(nb))]
	}
	return c
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// nearestSix selects the up-to-six subset members closest to v by
// insertion into the kicker's fixed scratch arrays (no allocation).
//
//distlint:hotpath
func (k *kicker) nearestSix(subset []int32, v int32) []int32 {
	var d6 [6]int64
	cnt := 0
	for _, c := range subset {
		if c == v {
			continue
		}
		d := k.dist(v, c)
		pos := cnt
		for pos > 0 && d6[pos-1] > d {
			pos--
		}
		if pos >= 6 {
			continue
		}
		if cnt < 6 {
			cnt++
		}
		copy(k.six[pos+1:cnt], k.six[pos:cnt-1])
		copy(d6[pos+1:cnt], d6[pos:cnt-1])
		k.six[pos] = c
		d6[pos] = d
	}
	return k.six[:cnt]
}

// DoubleBridge applies the Martin–Otto–Felten double-bridge move defined by
// the four given cities to the array tour: with cut positions q1<q2<q3<q4
// (the cities' tour positions), the segments A|B|C|D (each starting just
// after a cut) are reordered A·D·C·B, all kept forward. Exactly four edges
// are exchanged and no segment is reversed. It returns the length delta
// (new minus old) and the eight endpoint cities of the changed edges.
func DoubleBridge(t *lk.ArrayTour, cities [4]int32, dist func(i, j int32) int64) (int64, [8]int32) {
	delta, touched, _ := doubleBridge(t, cities, dist, nil)
	return delta, touched
}

// doubleBridge is DoubleBridge with a caller-owned scratch buffer. Segment
// A (the arc from the last cut back to the first) keeps its positions;
// only the range (q1..q4] is rewritten in place as D·C·B, so the move
// costs O(span of the cuts) instead of O(n) plus an allocation. The
// (possibly grown) scratch buffer is returned for reuse.
//
//distlint:hotpath
func doubleBridge(t *lk.ArrayTour, cities [4]int32, dist func(i, j int32) int64, scratch []int32) (int64, [8]int32, []int32) {
	n := int32(t.N())
	var q [4]int32
	for i, c := range cities {
		q[i] = t.Pos(c)
	}
	// Sort the four positions.
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && q[j-1] > q[j]; j-- {
			q[j-1], q[j] = q[j], q[j-1]
		}
	}
	// s[i] is the wrapped successor position of cut q[i].
	var s [4]int32
	for i, p := range q {
		p++
		if p == n {
			p = 0
		}
		s[i] = p
	}
	// Old boundary edges (q_i, q_i+1); new boundaries per A·D·C·B.
	removed := dist(t.At(q[0]), t.At(s[0])) +
		dist(t.At(q[1]), t.At(s[1])) +
		dist(t.At(q[2]), t.At(s[2])) +
		dist(t.At(q[3]), t.At(s[3]))
	added := dist(t.At(q[0]), t.At(s[2])) + // end A -> start D
		dist(t.At(q[3]), t.At(s[1])) + // end D -> start C
		dist(t.At(q[2]), t.At(s[0])) + // end C -> start B
		dist(t.At(q[1]), t.At(s[3])) // end B -> start A

	touched := [8]int32{
		t.At(q[0]), t.At(s[0]),
		t.At(q[1]), t.At(s[1]),
		t.At(q[2]), t.At(s[2]),
		t.At(q[3]), t.At(s[3]),
	}

	// Positions are sorted, so the range (q1..q4] is contiguous (no wrap).
	// A = (q4..q1] stays put; the range is rewritten as D = (q3..q4],
	// C = (q2..q3], B = (q1..q2].
	span := int(q[3] - q[0])
	if cap(scratch) < span {
		//lint:ignore hotpathalloc one-time growth to the instance size; New pre-sizes segBuf so steady-state kicks never land here
		scratch = make([]int32, 0, int(n))
	}
	buf := scratch[:span]
	w := 0
	for p := q[2] + 1; p <= q[3]; p++ { // D
		buf[w] = t.At(p)
		w++
	}
	for p := q[1] + 1; p <= q[2]; p++ { // C
		buf[w] = t.At(p)
		w++
	}
	for p := q[0] + 1; p <= q[1]; p++ { // B
		buf[w] = t.At(p)
		w++
	}
	t.SetSeg(q[0]+1, buf)
	return added - removed, touched, buf
}
