package graph

// This file contains the sorted-set kernels that power the worst-case
// optimal (wco) join: the candidate set of the next query vertex is the
// intersection of the neighbour lists of all its already-matched neighbours
// (Equation 2 in the paper).
//
// The kernels are degree-adaptive: every operand is a sorted CSR adjacency
// slice, optionally paired with a packed hub bitset (see bitset.go), and
// the dispatcher picks per operand pair between
//
//   - merge        two comparably-sized lists, linear scan
//   - gallop       a >=32x size skew, binary-probing the big list
//   - bitset-probe a hub operand, one load+mask per survivor
//   - bitset-AND   every operand a hub and the result still large,
//     word-parallel over the vertex universe
//
// plus count-only variants that never materialise a candidate list the
// caller only needs to count. Operands may be narrowed to a vertex window
// first (NbrList.Within — the bounds a symmetry-breaking order puts on the
// candidates); every kernel then works inside it, the unbounded operand
// being the window [0, NoBound). Every dispatch is tallied in the scratch's
// KernelCounts so the serving layers can prove each path stays exercised.

// gallopRatio is the size skew at which per-element binary probing beats a
// linear merge.
const gallopRatio = 32

// KernelCounts tallies kernel dispatches. It is plain (non-atomic) state
// accumulated per scratch — i.e. per worker — and flushed into the shared
// metrics.Kernels sink at scratch-release time, so the hot loop never
// touches a contended cache line.
type KernelCounts struct {
	Merge       uint64 // materialising merge intersections
	Gallop      uint64 // materialising galloping intersections
	BitsetProbe uint64 // list filtered through a hub bitset
	BitsetAnd   uint64 // word-parallel AND of hub bitsets

	CountMerge     uint64 // count-only merges
	CountGallop    uint64 // count-only gallops
	CountProbe     uint64 // count-only bitset probes
	CountBitsetAnd uint64 // count-only bitset ANDs (popcount, no iteration)
}

// Add accumulates o into c.
func (c *KernelCounts) Add(o KernelCounts) {
	c.Merge += o.Merge
	c.Gallop += o.Gallop
	c.BitsetProbe += o.BitsetProbe
	c.BitsetAnd += o.BitsetAnd
	c.CountMerge += o.CountMerge
	c.CountGallop += o.CountGallop
	c.CountProbe += o.CountProbe
	c.CountBitsetAnd += o.CountBitsetAnd
}

// Total sums every dispatch counter.
func (c KernelCounts) Total() uint64 {
	return c.Merge + c.Gallop + c.BitsetProbe + c.BitsetAnd +
		c.CountMerge + c.CountGallop + c.CountProbe + c.CountBitsetAnd
}

// NoBound is the upper bound of an operand that has none: Within(0, NoBound)
// is the unbounded operand itself.
const NoBound = ^VertexID(0)

// NbrList pairs a sorted adjacency list with the vertex's packed hub
// bitset, when one exists — the operand form the adaptive kernels dispatch
// on. Bits must describe exactly the vertices of the full list; Within
// narrows List and records the window Bits may still be read in.
type NbrList struct {
	List []VertexID
	Bits *Bitset
	// [lo, hi) is the window Within narrowed List to; Bits keeps spanning
	// the universe, so every read of it goes through the window. hi == 0
	// means none was applied (Within never records an empty one: an operand
	// narrowed to nothing drops its Bits).
	lo, hi VertexID
}

// window returns the vertex range [lo, hi) the operand's bitset may be
// read in: everything, unless Within narrowed it.
func (n NbrList) window() (lo, hi VertexID) {
	if n.hi == 0 {
		return 0, NoBound
	}
	return n.lo, n.hi
}

// Within narrows the operand to the vertices in [lo, hi) — the candidates a
// symmetry-breaking order leaves — by two binary searches, so the kernels
// never merge elements the bounds already exclude.
func (n NbrList) Within(lo, hi VertexID) NbrList {
	if lo == 0 && hi == NoBound {
		return n
	}
	l := clip(n.List, lo, hi)
	if len(l) == 0 {
		return NbrList{}
	}
	wlo, whi := n.window()
	return NbrList{List: l, Bits: n.Bits, lo: max(lo, wlo), hi: min(hi, whi)}
}

// Contains is the adaptive membership probe: one load+mask when the
// operand is a hub (inside its window, when it was narrowed), galloping
// binary search otherwise.
func (n NbrList) Contains(x VertexID) bool {
	if n.Bits != nil {
		lo, hi := n.window()
		return lo <= x && x < hi && n.Bits.Has(x)
	}
	return ContainsSorted(n.List, x)
}

// probe returns the part of the ascending list cur that may be looked up
// in the hub operand's bitset directly: cur trimmed to the operand's window
// (a no-op when the operands of one intersection share their bounds).
func (n NbrList) probe(cur []VertexID) []VertexID {
	lo, hi := n.window()
	return clip(cur, lo, hi)
}

// Candidates is the result of an adaptive intersection: a sorted list, or
// — when the bitset-AND path wins — a packed bitset that callers iterate
// or probe without ever materialising a list. Exactly one of List/Bits is
// meaningful; Bits aliases the scratch it was computed with and is valid
// until the scratch's next intersection.
type Candidates struct {
	List []VertexID
	Bits *Bitset
}

// Len returns the candidate count (popcount on the bitset path).
func (c Candidates) Len() int {
	if c.Bits != nil {
		return c.Bits.Count()
	}
	return len(c.List)
}

// Contains reports whether v is a candidate.
func (c Candidates) Contains(v VertexID) bool {
	if c.Bits != nil {
		return c.Bits.Has(v)
	}
	return ContainsSorted(c.List, v)
}

// Range calls f on every candidate in ascending order until f returns
// false — on the bitset path this iterates set bits directly.
func (c Candidates) Range(f func(VertexID) bool) {
	if c.Bits != nil {
		c.Bits.Range(f)
		return
	}
	for _, v := range c.List {
		if !f(v) {
			return
		}
	}
}

// AppendTo materialises the candidates into dst (for callers that build
// output rows and genuinely need a slice).
func (c Candidates) AppendTo(dst []VertexID) []VertexID {
	if c.Bits != nil {
		return c.Bits.AppendTo(dst)
	}
	return append(dst, c.List...)
}

// IntersectScratch holds reusable buffers for the multiway kernels so the
// hot path allocates nothing after warm-up, plus the per-worker kernel
// dispatch tally.
type IntersectScratch struct {
	a, b  []VertexID // ping-pong intermediate buffers
	perm  []int      // ascending-size operand order
	bs    []*Bitset  // operand bitsets of the AND path
	res   Bitset     // result bitset of the AND path
	Stats KernelCounts
}

// DropRefs clears the snapshot-owned pointers the scratch retained from
// its last intersection (operand hub bitsets), so pooled scratches never
// pin a superseded graph snapshot. The scratch-owned buffers are kept.
func (s *IntersectScratch) DropRefs() {
	clear(s.bs)
	s.bs = s.bs[:0]
}

// gatherBits collects the operands' bitsets in perm order into the
// scratch-owned buffer.
func (s *IntersectScratch) gatherBits(sets []NbrList, perm []int) []*Bitset {
	s.bs = s.bs[:0]
	for _, pi := range perm {
		s.bs = append(s.bs, sets[pi].Bits)
	}
	return s.bs
}

// lowerBound returns the number of elements of the ascending-sorted slice s
// that are less than x.
func lowerBound(s []VertexID, x VertexID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clip returns the sub-slice of the ascending-sorted s that lies in
// [lo, hi), searching only from an end that actually sticks out.
func clip(s []VertexID, lo, hi VertexID) []VertexID {
	if len(s) > 0 && s[0] < lo {
		s = s[lowerBound(s, lo):]
	}
	if n := len(s); n > 0 && s[n-1] >= hi {
		s = s[:lowerBound(s, hi)]
	}
	return s
}

// ContainsSorted reports whether x occurs in the ascending-sorted slice s,
// using binary search.
func ContainsSorted(s []VertexID, x VertexID) bool {
	i := lowerBound(s, x)
	return i < len(s) && s[i] == x
}

// IntersectSorted returns the intersection of two ascending-sorted slices,
// appending into dst (which may be nil). When the sizes are highly skewed
// it gallops through the larger list.
func IntersectSorted(dst, a, b []VertexID) []VertexID {
	return intersectPair(dst, a, b, nil)
}

func intersectPair(dst, a, b []VertexID, st *KernelCounts) []VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst[:0]
	}
	dst = dst[:0]
	if len(b) >= gallopRatio*len(a) {
		if st != nil {
			st.Gallop++
		}
		// Galloping: for each element of the small list, binary search the big one.
		lo := 0
		for _, x := range a {
			// Exponential probe from lo.
			step := 1
			hi := lo
			for hi < len(b) && b[hi] < x {
				lo = hi + 1
				hi = lo + step
				step <<= 1
			}
			if hi > len(b) {
				hi = len(b)
			}
			// Binary search in [lo, hi).
			l, h := lo, hi
			for l < h {
				mid := int(uint(l+h) >> 1)
				if b[mid] < x {
					l = mid + 1
				} else {
					h = mid
				}
			}
			lo = l
			if lo < len(b) && b[lo] == x {
				dst = append(dst, x)
				lo++
			}
			if lo >= len(b) {
				break
			}
		}
		return dst
	}
	if st != nil {
		st.Merge++
	}
	// Merge-style intersection.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectCount returns |a ∩ b| without materialising it, galloping when
// the sizes are skewed — the pairwise count-only kernel behind the
// compressed counting path.
func IntersectCount(a, b []VertexID) int {
	return intersectCountPair(a, b, nil)
}

func intersectCountPair(a, b []VertexID, st *KernelCounts) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	if len(b) >= gallopRatio*len(a) {
		if st != nil {
			st.CountGallop++
		}
		lo := 0
		for _, x := range a {
			step := 1
			hi := lo
			for hi < len(b) && b[hi] < x {
				lo = hi + 1
				hi = lo + step
				step <<= 1
			}
			if hi > len(b) {
				hi = len(b)
			}
			l, h := lo, hi
			for l < h {
				mid := int(uint(l+h) >> 1)
				if b[mid] < x {
					l = mid + 1
				} else {
					h = mid
				}
			}
			lo = l
			if lo < len(b) && b[lo] == x {
				n++
				lo++
			}
			if lo >= len(b) {
				break
			}
		}
		return n
	}
	if st != nil {
		st.CountMerge++
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// orderBySize fills scratch.perm with operand indices in ascending size of
// their lists (stable), so multiway intersections shrink the running
// result as fast as possible without rescanning for minima at every step.
func orderBySize(sizes func(int) int, k int, scratch *IntersectScratch) []int {
	perm := scratch.perm[:0]
	for i := 0; i < k; i++ {
		perm = append(perm, i)
	}
	// Insertion sort: k is the query degree (tiny), and the common
	// already-sorted case is linear.
	for i := 1; i < k; i++ {
		for j := i; j > 0 && sizes(perm[j]) < sizes(perm[j-1]); j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	scratch.perm = perm
	return perm
}

// IntersectMany intersects all lists, processing them in ascending size so
// the running result shrinks as fast as possible, reusing scratch space.
// The returned slice aliases one of the scratch buffers and is valid until
// the next call with the same scratch. This is the list-only kernel; the
// engine's hot path goes through IntersectAdaptive.
func IntersectMany(lists [][]VertexID, scratch *IntersectScratch) []VertexID {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	perm := orderBySize(func(i int) int { return len(lists[i]) }, len(lists), scratch)
	cur := intersectPair(scratch.a, lists[perm[0]], lists[perm[1]], &scratch.Stats)
	scratch.a = cur[:0:cap(cur)]
	other := scratch.b
	for _, pi := range perm[2:] {
		if len(cur) == 0 {
			break
		}
		next := intersectPair(other, cur, lists[pi], &scratch.Stats)
		other = cur[:0:cap(cur)]
		cur = next
	}
	// Record the (possibly grown) buffers for reuse.
	scratch.a, scratch.b = cur[:0:cap(cur)], other
	return cur
}

// andWindow reports whether the all-bitset AND path wins, and over which
// vertex window [lo, hi) it runs: the intersection of the operands'
// windows, clamped to the universe. Every operand must carry a hub bitset
// and the smallest (narrowed) list must span at least as many elements as
// the window has words — below that, probing the smallest list through the
// other bitsets touches less memory.
func andWindow(sets []NbrList, minLen int) (lo, hi int, ok bool) {
	wlo, whi := VertexID(0), NoBound
	for _, s := range sets {
		if s.Bits == nil {
			return 0, 0, false
		}
		slo, shi := s.window()
		wlo, whi = max(wlo, slo), min(whi, shi)
	}
	lo, hi = int(wlo), int(min(uint64(whi), uint64(sets[0].Bits.Words())<<6))
	return lo, hi, lo < hi && minLen >= (hi-1)>>6-lo>>6+1
}

// IntersectAdaptive is the dispatcher behind every materialising wco
// extension: it intersects the operand sets in ascending size, picking
// merge / gallop / bitset-probe per pair — or, when every operand is a hub
// and the result is still large, one word-parallel bitset AND whose result
// stays packed (Candidates.Bits) for the caller to iterate or probe.
// List results alias the scratch (or, for a single operand, the operand
// itself) and are valid until the next call with the same scratch.
func IntersectAdaptive(sets []NbrList, scratch *IntersectScratch) Candidates {
	switch len(sets) {
	case 0:
		return Candidates{}
	case 1:
		return Candidates{List: sets[0].List}
	}
	perm := orderBySize(func(i int) int { return len(sets[i].List) }, len(sets), scratch)
	minLen := len(sets[perm[0]].List)
	if minLen == 0 {
		return Candidates{}
	}
	if lo, hi, ok := andWindow(sets, minLen); ok {
		scratch.Stats.BitsetAnd++
		andInto(&scratch.res, scratch.gatherBits(sets, perm), lo, hi)
		return Candidates{Bits: &scratch.res}
	}
	cur := sets[perm[0]].List
	buf, other := scratch.a, scratch.b
	for _, pi := range perm[1:] {
		if len(cur) == 0 {
			break
		}
		s := sets[pi]
		var next []VertexID
		if s.Bits != nil {
			// Bitset-probe: filter the running result through the hub's
			// packed neighbourhood, one load+mask per survivor.
			scratch.Stats.BitsetProbe++
			next = buf[:0]
			for _, x := range s.probe(cur) {
				if s.Bits.Has(x) {
					next = append(next, x)
				}
			}
		} else {
			next = intersectPair(buf, cur, s.List, &scratch.Stats)
		}
		buf, other = other, next[:0:cap(next)]
		cur = next
	}
	scratch.a, scratch.b = buf, other
	return Candidates{List: cur}
}

// IntersectCountAdaptive returns the size of the intersection of the
// operand sets without materialising it when avoidable: the all-hub AND
// path reduces to a popcount, and otherwise the largest operand — the one
// whose materialisation the merge path would pay most for — is applied
// count-only (merge-count, gallop-count or bitset-probe-count). Only the
// intermediate results of 3+-way intersections still materialise, into the
// scratch.
func IntersectCountAdaptive(sets []NbrList, scratch *IntersectScratch) int {
	switch len(sets) {
	case 0:
		return 0
	case 1:
		return len(sets[0].List)
	case 2:
		if sets[0].Bits == nil && sets[1].Bits == nil {
			// Two plain lists: the pair kernel picks merge or gallop
			// itself, as the general path below would end up doing.
			return intersectCountPair(sets[0].List, sets[1].List, &scratch.Stats)
		}
	}
	perm := orderBySize(func(i int) int { return len(sets[i].List) }, len(sets), scratch)
	minLen := len(sets[perm[0]].List)
	if minLen == 0 {
		return 0
	}
	if lo, hi, ok := andWindow(sets, minLen); ok {
		scratch.Stats.CountBitsetAnd++
		andInto(&scratch.res, scratch.gatherBits(sets, perm), lo, hi)
		return scratch.res.Count()
	}
	// Materialise all but the largest operand (ascending, so intermediates
	// stay small), then count the final pair without building it.
	cur := sets[perm[0]].List
	buf, other := scratch.a, scratch.b
	last := len(perm) - 1
	for _, pi := range perm[1:last] {
		if len(cur) == 0 {
			break
		}
		s := sets[pi]
		var next []VertexID
		if s.Bits != nil {
			scratch.Stats.BitsetProbe++
			next = buf[:0]
			for _, x := range s.probe(cur) {
				if s.Bits.Has(x) {
					next = append(next, x)
				}
			}
		} else {
			next = intersectPair(buf, cur, s.List, &scratch.Stats)
		}
		buf, other = other, next[:0:cap(next)]
		cur = next
	}
	scratch.a, scratch.b = buf, other
	if len(cur) == 0 {
		return 0
	}
	final := sets[perm[last]]
	if final.Bits != nil {
		scratch.Stats.CountProbe++
		n := 0
		for _, x := range final.probe(cur) {
			if final.Bits.Has(x) {
				n++
			}
		}
		return n
	}
	return intersectCountPair(cur, final.List, &scratch.Stats)
}
