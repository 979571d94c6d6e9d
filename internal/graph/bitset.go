package graph

// Packed neighbour bitsets for hub vertices. On hub-heavy graphs the wco
// intersection kernels spend most of their cycles re-merging the same large
// adjacency lists; a bitset over the vertex universe turns membership in a
// hub's neighbourhood into one load+mask, and the intersection of two hub
// neighbourhoods into a word-parallel AND. Bitsets are only worth their
// numV/8 bytes for vertices whose lists are long, so the index covers
// exactly the vertices with degree >= the hub threshold — which bounds its
// total size by E*numV/(4*threshold) bytes, i.e. about one CSR's worth at
// the default threshold of numV/32.

import "math/bits"

// Bitset is a fixed-universe bit vector over vertex IDs with a cached
// population count. A hub's bitset spans the whole universe; the result of
// a bounded bitset AND spans only the words of its window (base > 0) and
// reads as empty outside them. The zero value is an empty set.
type Bitset struct {
	words []uint64
	base  int // index, in the universe, of words[0]
	n     int // cached population count
}

// NewBitsetFrom packs an ascending vertex list into a bitset over a
// universe of numV vertices.
func NewBitsetFrom(numV int, vs []VertexID) *Bitset {
	b := &Bitset{words: make([]uint64, (numV+63)/64), n: len(vs)}
	for _, v := range vs {
		b.words[v>>6] |= 1 << (v & 63)
	}
	return b
}

// Has reports whether v is in the set.
func (b *Bitset) Has(v VertexID) bool {
	w := int(v>>6) - b.base
	return uint(w) < uint(len(b.words)) && b.words[w]&(1<<(v&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int { return b.n }

// Words returns the number of 64-bit words the set spans — the cost unit of
// the bitset-AND path.
func (b *Bitset) Words() int { return len(b.words) }

// Range calls f on every set vertex in ascending order until f returns
// false.
func (b *Bitset) Range(f func(VertexID) bool) {
	for wi, w := range b.words {
		base := VertexID((b.base + wi) << 6)
		for w != 0 {
			if !f(base + VertexID(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendTo appends the set vertices in ascending order to dst.
func (b *Bitset) AppendTo(dst []VertexID) []VertexID {
	b.Range(func(v VertexID) bool { dst = append(dst, v); return true })
	return dst
}

// andInto intersects sets over the vertex window [lo, hi) into dst, which
// ends up spanning exactly the window's words: only those are read, so a
// narrow window costs its own width, not the universe's. All sets must span
// one whole universe, and 0 <= lo < hi <= 64 * their word count.
func andInto(dst *Bitset, sets []*Bitset, lo, hi int) {
	first := lo >> 6
	w := (hi-1)>>6 - first + 1
	if cap(dst.words) < w {
		dst.words = make([]uint64, w)
	}
	dst.words, dst.base = dst.words[:w], first
	n := 0
	switch len(sets) {
	case 2:
		a, b := sets[0].words[first:first+w], sets[1].words[first:first+w]
		for i := range a {
			x := a[i] & b[i]
			dst.words[i] = x
			n += bits.OnesCount64(x)
		}
	default:
		copy(dst.words, sets[0].words[first:])
		for _, s := range sets[1:] {
			for i, sw := range s.words[first : first+w] {
				dst.words[i] &= sw
			}
		}
		for _, x := range dst.words {
			n += bits.OnesCount64(x)
		}
	}
	// The window's first and last word may reach past it.
	trim := func(i int, keep uint64) {
		if out := dst.words[i] &^ keep; out != 0 {
			dst.words[i] &= keep
			n -= bits.OnesCount64(out)
		}
	}
	trim(0, ^uint64(0)<<(lo&63))
	if hi&63 != 0 {
		trim(w-1, 1<<(hi&63)-1)
	}
	dst.n = n
}

// hubMinDegreeFloor is the smallest degree ever treated as a hub: below it
// a binary search beats the bitset's cache footprint.
const hubMinDegreeFloor = 64

// defaultHubMinDegree is the auto threshold: degree >= max(64, numV/32).
// Since hub degrees sum to at most 2E, the packed bitsets then total at
// most 8E bytes — about the size of the CSR adjacency array itself.
func defaultHubMinDegree(numV int) int {
	d := numV / 32
	if d < hubMinDegreeFloor {
		d = hubMinDegreeFloor
	}
	return d
}

// hubIndex is the per-snapshot packed-bitset index: one neighbour bitset
// per vertex with degree >= minDeg. Immutable once published.
type hubIndex struct {
	minDeg int
	bits   map[VertexID]*Bitset
}

// HubMinDegree returns the degree threshold the hub-bitset index uses (or
// would use) on this snapshot.
func (g *Graph) HubMinDegree() int {
	if idx := g.hub.Load(); idx != nil {
		return idx.minDeg
	}
	return defaultHubMinDegree(g.numV)
}

// NumHubs returns the number of vertices covered by the hub-bitset index,
// building it if necessary.
func (g *Graph) NumHubs() int {
	g.EnsureHubIndex()
	return len(g.hub.Load().bits)
}

// HubBitset returns the packed neighbour bitset of v, or nil when v's
// degree is below the hub threshold. The first call builds the index —
// one overlay-aware O(V+E) pass, memoised per snapshot and safe under
// concurrent Execs (later callers block until the build completes).
// The returned bitset is immutable and shared; do not modify.
func (g *Graph) HubBitset(v VertexID) *Bitset {
	g.EnsureHubIndex()
	return g.hub.Load().bits[v]
}

// adoptHubIndex carries src's hub index, when already built, onto a view
// sharing the same adjacency (WithLabels / WithEdgeLabels twins). Bitsets
// depend only on adjacency, so sharing is sound and saves the twin a
// rebuild.
func (g *Graph) adoptHubIndex(src *Graph) {
	if idx := src.hub.Load(); idx != nil {
		g.hubOnce.Do(func() { g.hub.Store(idx) })
	}
}

// EnsureHubIndex forces the lazy hub-bitset build. Concurrent calls are
// safe; exactly one performs the pass.
func (g *Graph) EnsureHubIndex() {
	g.hubOnce.Do(func() {
		idx := &hubIndex{minDeg: g.HubMinDegree(), bits: map[VertexID]*Bitset{}}
		for v := 0; v < g.numV; v++ {
			nb := g.Neighbors(VertexID(v))
			if len(nb) >= idx.minDeg {
				idx.bits[VertexID(v)] = NewBitsetFrom(g.numV, nb)
			}
		}
		g.hub.Store(idx)
	})
}
