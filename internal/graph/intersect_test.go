package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// --- naive reference implementations ------------------------------------

// intersectNaive intersects sorted unique lists via a counting map — the
// oracle every adaptive kernel is differenced against.
func intersectNaiveK(lists [][]VertexID) []VertexID {
	if len(lists) == 0 {
		return nil
	}
	count := map[VertexID]int{}
	for _, l := range lists {
		for _, v := range l {
			count[v]++
		}
	}
	out := []VertexID{}
	for _, v := range lists[0] {
		if count[v] == len(lists) {
			out = append(out, v)
		}
	}
	return out
}

// randomSorted returns a sorted, duplicate-free list of n vertices drawn
// from a universe of numV.
func randomSorted(rng *rand.Rand, n, numV int) []VertexID {
	seen := map[VertexID]bool{}
	for len(seen) < n && len(seen) < numV {
		seen[VertexID(rng.Intn(numV))] = true
	}
	out := make([]VertexID, 0, len(seen))
	for v := VertexID(0); int(v) < numV; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// asSets wraps lists as NbrList operands; withBits selects which operands
// also carry a packed bitset over the given universe.
func asSets(lists [][]VertexID, numV int, withBits func(i int) bool) []NbrList {
	sets := make([]NbrList, len(lists))
	for i, l := range lists {
		sets[i] = NbrList{List: l}
		if withBits(i) {
			sets[i].Bits = NewBitsetFrom(numV, l)
		}
	}
	return sets
}

func materialize(c Candidates) []VertexID {
	return c.AppendTo([]VertexID{})
}

// --- pairwise kernels ----------------------------------------------------

func TestIntersectPairDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const numV = 4096
	cases := [][2][]VertexID{
		{nil, nil},
		{{}, {1, 2, 3}},
		{{5}, {5}},
		{{1, 3, 5}, {2, 4, 6}}, // disjoint
		// >=32x skew in both argument orders drives the gallop kernel.
		{randomSorted(rng, 10, numV), randomSorted(rng, 2000, numV)},
		{randomSorted(rng, 2000, numV), randomSorted(rng, 10, numV)},
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, [2][]VertexID{
			randomSorted(rng, rng.Intn(300), numV),
			randomSorted(rng, rng.Intn(300), numV),
		})
	}
	for i, c := range cases {
		want := intersectNaiveK([][]VertexID{c[0], c[1]})
		got := IntersectSorted(nil, c[0], c[1])
		if !reflect.DeepEqual(append([]VertexID{}, got...), want) {
			t.Fatalf("case %d: IntersectSorted = %v, want %v", i, got, want)
		}
		if n := IntersectCount(c[0], c[1]); n != len(want) {
			t.Fatalf("case %d: IntersectCount = %d, want %d", i, n, len(want))
		}
	}
}

// --- multiway adaptive kernels ------------------------------------------

// TestIntersectAdaptiveDifferential differences the adaptive dispatcher
// (and its count-only twin, and legacy IntersectMany) against the naive
// reference over random operand sets with every bitset-attachment pattern:
// none, some, all ("all-hub", which triggers the word-parallel AND).
func TestIntersectAdaptiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sc IntersectScratch
	for trial := 0; trial < 400; trial++ {
		numV := 64 + rng.Intn(1024)
		k := 2 + rng.Intn(4)
		lists := make([][]VertexID, k)
		for i := range lists {
			n := rng.Intn(numV)
			if trial%7 == 0 {
				n = rng.Intn(8) // occasionally tiny / empty operands
			}
			lists[i] = randomSorted(rng, n, numV)
		}
		mode := trial % 3
		sets := asSets(lists, numV, func(i int) bool {
			switch mode {
			case 0:
				return false // list-only
			case 1:
				return i%2 == 0 // mixed
			default:
				return true // all-hub: bitset-AND eligible
			}
		})
		want := intersectNaiveK(lists)

		got := materialize(IntersectAdaptive(sets, &sc))
		if !reflect.DeepEqual(got, append([]VertexID{}, want...)) {
			t.Fatalf("trial %d (mode %d): IntersectAdaptive = %v, want %v", trial, mode, got, want)
		}
		if n := IntersectCountAdaptive(sets, &sc); n != len(want) {
			t.Fatalf("trial %d (mode %d): IntersectCountAdaptive = %d, want %d", trial, mode, n, len(want))
		}
		many := IntersectMany(lists, &sc)
		if !reflect.DeepEqual(append([]VertexID{}, many...), want) {
			t.Fatalf("trial %d: IntersectMany = %v, want %v", trial, many, want)
		}
	}
}

// withinAll narrows every operand to [lo, hi).
func withinAll(sets []NbrList, lo, hi VertexID) []NbrList {
	out := make([]NbrList, len(sets))
	for i, s := range sets {
		out[i] = s.Within(lo, hi)
	}
	return out
}

// checkBounded differences the kernels on operands narrowed to [lo, hi)
// against filtering the unbounded reference afterwards — the materialised
// result, the count, and operand membership, which is what the engine's
// collision subtraction asks: a vertex outside the bounds is no candidate
// even when an operand's (universe-wide) hub bitset holds it.
func checkBounded(t *testing.T, lists [][]VertexID, sets []NbrList, numV int, lo, hi VertexID, sc *IntersectScratch) {
	t.Helper()
	want := []VertexID{}
	for _, v := range intersectNaiveK(lists) {
		if lo <= v && v < hi {
			want = append(want, v)
		}
	}
	bounded := withinAll(sets, lo, hi)
	cand := IntersectAdaptive(bounded, sc)
	if got := materialize(cand); !reflect.DeepEqual(got, want) {
		t.Fatalf("bounds [%d,%d): IntersectAdaptive = %v, want %v (lists %v)", lo, hi, got, want, lists)
	}
	if cand.Len() != len(want) {
		t.Fatalf("bounds [%d,%d): Candidates.Len = %d, want %d", lo, hi, cand.Len(), len(want))
	}
	for v := VertexID(0); int(v) < numV; v++ {
		if cand.Contains(v) != ContainsSorted(want, v) {
			t.Fatalf("bounds [%d,%d): Candidates.Contains(%d) = %v (result %v)", lo, hi, v, cand.Contains(v), want)
		}
	}
	if n := IntersectCountAdaptive(bounded, sc); n != len(want) {
		t.Fatalf("bounds [%d,%d): IntersectCountAdaptive = %d, want %d (lists %v)", lo, hi, n, len(want), lists)
	}
	for v := VertexID(0); int(v) < numV; v++ {
		inAll := true
		for _, s := range bounded {
			inAll = inAll && s.Contains(v)
		}
		if inAll != ContainsSorted(want, v) {
			t.Fatalf("bounds [%d,%d): operands contain %d = %v, want %v", lo, hi, v, inAll, !inAll)
		}
	}
}

// TestIntersectBoundedDifferential is the bounded twin of the differential
// test above: random operands with every bitset-attachment pattern under
// random windows — empty, one-sided, inside one word, spanning all.
func TestIntersectBoundedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sc IntersectScratch
	for trial := 0; trial < 600; trial++ {
		numV := 64 + rng.Intn(1024)
		k := 1 + rng.Intn(4)
		lists := make([][]VertexID, k)
		for i := range lists {
			n := rng.Intn(numV)
			if trial%7 == 0 {
				n = rng.Intn(8)
			}
			lists[i] = randomSorted(rng, n, numV)
		}
		mode := trial % 3
		sets := asSets(lists, numV, func(i int) bool { return mode == 2 || (mode == 1 && i%2 == 0) })
		lo, hi := VertexID(rng.Intn(numV)), VertexID(rng.Intn(numV+1))
		switch trial % 5 {
		case 0:
			lo = 0
		case 1:
			hi = NoBound
		case 2:
			hi = lo + VertexID(rng.Intn(64)) // within a word or two
		}
		checkBounded(t, lists, sets, numV, lo, hi, &sc)
		checkBounded(t, lists, sets, numV, 0, NoBound, &sc) // the unbounded case of the same calls
	}
}

// TestBoundedHubOperandOutsideBounds pins the collision-subtraction case:
// u is adjacent to both hubs — their bitsets hold it — but lies below the
// bounds, so no narrowed operand may report it, and the bitset AND must not
// count it.
func TestBoundedHubOperandOutsideBounds(t *testing.T) {
	const numV = 256
	a := make([]VertexID, 0, numV)
	for v := VertexID(0); v < numV; v++ {
		a = append(a, v)
	}
	lists := [][]VertexID{a, a}
	sets := asSets(lists, numV, func(int) bool { return true })
	const u, lo = 70, 100
	var sc IntersectScratch
	bounded := withinAll(sets, lo, NoBound)
	for i, s := range bounded {
		if !sets[i].Contains(u) || s.Contains(u) {
			t.Fatalf("operand %d: Contains(%d) = %v unbounded / %v narrowed to [%d,inf), want true / false",
				i, u, sets[i].Contains(u), s.Contains(u), lo)
		}
	}
	if n := IntersectCountAdaptive(bounded, &sc); n != numV-lo {
		t.Fatalf("bounded count = %d, want %d", n, numV-lo)
	}
	if sc.Stats.CountBitsetAnd != 1 {
		t.Fatalf("all-hub bounded count did not take the bitset AND: %+v", sc.Stats)
	}
	// Operands narrowed to different windows intersect over the common one.
	mixed := []NbrList{sets[0].Within(lo, NoBound), sets[1].Within(0, 150)}
	if got := materialize(IntersectAdaptive(mixed, &sc)); len(got) != 150-lo || got[0] != lo {
		t.Fatalf("mixed windows: %d candidates from %v, want %d from %d", len(got), got[:1], 150-lo, lo)
	}
	probe := []NbrList{{List: []VertexID{u, 120, 200}}, sets[1].Within(lo, 150)}
	if got := materialize(IntersectAdaptive(probe, &sc)); !reflect.DeepEqual(got, []VertexID{120}) {
		t.Fatalf("probe through a narrowed hub = %v, want [120]", got)
	}
}

func TestIntersectAdaptiveEdgeCases(t *testing.T) {
	var sc IntersectScratch
	if c := IntersectAdaptive(nil, &sc); c.Len() != 0 {
		t.Fatalf("empty operands: Len = %d", c.Len())
	}
	if n := IntersectCountAdaptive(nil, &sc); n != 0 {
		t.Fatalf("empty operands: count = %d", n)
	}
	one := []NbrList{{List: []VertexID{2, 4, 6}}}
	if got := materialize(IntersectAdaptive(one, &sc)); !reflect.DeepEqual(got, []VertexID{2, 4, 6}) {
		t.Fatalf("single operand: %v", got)
	}
	if n := IntersectCountAdaptive(one, &sc); n != 3 {
		t.Fatalf("single operand count = %d", n)
	}
	// An empty operand anywhere zeroes the result.
	sets := []NbrList{{List: []VertexID{1, 2}}, {List: []VertexID{}}}
	if c := IntersectAdaptive(sets, &sc); c.Len() != 0 {
		t.Fatalf("empty operand: Len = %d", c.Len())
	}
	if n := IntersectCountAdaptive(sets, &sc); n != 0 {
		t.Fatalf("empty operand: count = %d", n)
	}
}

// TestKernelDispatchCounters crafts one input per kernel and asserts the
// matching counter — proving the dispatcher actually takes each path.
func TestKernelDispatchCounters(t *testing.T) {
	const numV = 256
	rng := rand.New(rand.NewSource(7))
	big := randomSorted(rng, 200, numV)
	big2 := randomSorted(rng, 190, numV)
	small := randomSorted(rng, 5, numV)

	check := func(name string, counter func(KernelCounts) uint64, run func(sc *IntersectScratch)) {
		t.Helper()
		var sc IntersectScratch
		run(&sc)
		if counter(sc.Stats) == 0 {
			t.Fatalf("%s: counter stayed zero (stats %+v)", name, sc.Stats)
		}
	}
	check("merge", func(c KernelCounts) uint64 { return c.Merge }, func(sc *IntersectScratch) {
		IntersectAdaptive(asSets([][]VertexID{big, big2}, numV, func(int) bool { return false }), sc)
	})
	check("gallop", func(c KernelCounts) uint64 { return c.Gallop }, func(sc *IntersectScratch) {
		IntersectAdaptive(asSets([][]VertexID{small, big}, numV, func(int) bool { return false }), sc)
	})
	check("bitset-probe", func(c KernelCounts) uint64 { return c.BitsetProbe }, func(sc *IntersectScratch) {
		// Only the big operand is a hub; the small list is filtered through it.
		IntersectAdaptive(asSets([][]VertexID{small, big}, numV, func(i int) bool { return i == 1 }), sc)
	})
	check("bitset-and", func(c KernelCounts) uint64 { return c.BitsetAnd }, func(sc *IntersectScratch) {
		// All operands hubs and minLen (190) >= words (4): word-parallel AND.
		IntersectAdaptive(asSets([][]VertexID{big, big2}, numV, func(int) bool { return true }), sc)
	})
	check("count-merge", func(c KernelCounts) uint64 { return c.CountMerge }, func(sc *IntersectScratch) {
		IntersectCountAdaptive(asSets([][]VertexID{big, big2}, numV, func(int) bool { return false }), sc)
	})
	check("count-gallop", func(c KernelCounts) uint64 { return c.CountGallop }, func(sc *IntersectScratch) {
		IntersectCountAdaptive(asSets([][]VertexID{small, big}, numV, func(int) bool { return false }), sc)
	})
	check("count-probe", func(c KernelCounts) uint64 { return c.CountProbe }, func(sc *IntersectScratch) {
		IntersectCountAdaptive(asSets([][]VertexID{small, big}, numV, func(i int) bool { return i == 1 }), sc)
	})
	check("count-bitset-and", func(c KernelCounts) uint64 { return c.CountBitsetAnd }, func(sc *IntersectScratch) {
		IntersectCountAdaptive(asSets([][]VertexID{big, big2}, numV, func(int) bool { return true }), sc)
	})

	// The per-scratch tally aggregates and resets cleanly.
	var total, delta KernelCounts
	delta.Gallop, delta.CountProbe = 3, 4
	total.Add(delta)
	total.Add(delta)
	if total.Total() != 14 {
		t.Fatalf("KernelCounts.Add/Total = %d, want 14", total.Total())
	}
}

// --- fuzz ----------------------------------------------------------------

// FuzzIntersectAdaptive decodes arbitrary bytes into 2-4 sorted operand
// lists with arbitrary bitset attachment and differences the adaptive
// kernels against the naive reference, unbounded and narrowed to an
// arbitrary window.
func FuzzIntersectAdaptive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(0), uint16(0), uint16(0xffff))
	f.Add([]byte{0xff, 0x00, 0x80, 0x41}, uint8(3), uint8(5), uint16(0), uint16(0xffff))
	f.Add([]byte{}, uint8(4), uint8(0xff), uint16(0), uint16(0))
	// Bounded cases: a one-word window, a lower bound only, an empty window.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(3), uint16(4), uint16(20))
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60}, uint8(3), uint8(7), uint16(65), uint16(0xffff))
	f.Add([]byte{9, 9, 9, 9}, uint8(2), uint8(1), uint16(300), uint16(10))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, bitsMask uint8, loRaw, hiRaw uint16) {
		const numV = 512
		k := 2 + int(kRaw)%3
		lists := make([][]VertexID, k)
		for i := range lists {
			seen := map[VertexID]bool{}
			for j := i; j < len(data); j += k {
				seen[VertexID(uint16(data[j])<<1|uint16(i&1))%numV] = true
			}
			l := []VertexID{}
			for v := VertexID(0); v < numV; v++ {
				if seen[v] {
					l = append(l, v)
				}
			}
			lists[i] = l
		}
		sets := asSets(lists, numV, func(i int) bool { return bitsMask&(1<<i) != 0 })
		want := intersectNaiveK(lists)
		var sc IntersectScratch
		got := materialize(IntersectAdaptive(sets, &sc))
		if !reflect.DeepEqual(got, append([]VertexID{}, want...)) {
			t.Fatalf("IntersectAdaptive = %v, want %v (lists %v)", got, want, lists)
		}
		if n := IntersectCountAdaptive(sets, &sc); n != len(want) {
			t.Fatalf("IntersectCountAdaptive = %d, want %d (lists %v)", n, len(want), lists)
		}
		hi := VertexID(hiRaw)
		if hiRaw == 0xffff {
			hi = NoBound
		}
		checkBounded(t, lists, sets, numV, VertexID(loRaw), hi, &sc)
	})
}

// --- bitset + hub index --------------------------------------------------

func TestBitsetBasic(t *testing.T) {
	vs := []VertexID{0, 63, 64, 100, 255}
	b := NewBitsetFrom(256, vs)
	if b.Count() != len(vs) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(vs))
	}
	if b.Words() != 4 {
		t.Fatalf("Words = %d, want 4", b.Words())
	}
	for _, v := range vs {
		if !b.Has(v) {
			t.Fatalf("Has(%d) = false", v)
		}
	}
	for _, v := range []VertexID{1, 62, 65, 254} {
		if b.Has(v) {
			t.Fatalf("Has(%d) = true", v)
		}
	}
	if got := b.AppendTo(nil); !reflect.DeepEqual(got, vs) {
		t.Fatalf("AppendTo = %v, want %v", got, vs)
	}
	// Range stops when f returns false.
	n := 0
	b.Range(func(VertexID) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Range early exit visited %d, want 2", n)
	}
}

// hubTestGraph builds a graph whose vertex 0 is a high-degree hub.
func hubTestGraph(deg int) *Graph {
	edges := make([][2]VertexID, 0, deg+deg/2)
	for i := 1; i <= deg; i++ {
		edges = append(edges, [2]VertexID{0, VertexID(i)})
	}
	// A sparse ring among the leaves so non-hub lists exist too.
	for i := 1; i < deg; i += 2 {
		edges = append(edges, [2]VertexID{VertexID(i), VertexID(i + 1)})
	}
	return FromEdges(edges)
}

func TestHubIndexBuildAndThreshold(t *testing.T) {
	g := hubTestGraph(100)
	if got := g.HubMinDegree(); got != hubMinDegreeFloor {
		t.Fatalf("auto HubMinDegree = %d, want %d", got, hubMinDegreeFloor)
	}
	if n := g.NumHubs(); n != 1 {
		t.Fatalf("NumHubs = %d, want 1 (only vertex 0 has degree >= %d)", n, hubMinDegreeFloor)
	}
	if got := g.HubMinDegree(); got != hubMinDegreeFloor {
		t.Fatalf("post-build HubMinDegree = %d, want %d", got, hubMinDegreeFloor)
	}
	hb := g.HubBitset(0)
	if hb == nil {
		t.Fatal("HubBitset(0) = nil for the hub")
	}
	if hb.Count() != g.Degree(0) {
		t.Fatalf("hub bitset Count = %d, want degree %d", hb.Count(), g.Degree(0))
	}
	if got := hb.AppendTo(nil); !reflect.DeepEqual(got, g.Neighbors(0)) {
		t.Fatalf("hub bitset = %v, want Neighbors(0) = %v", got, g.Neighbors(0))
	}
	if g.HubBitset(1) != nil {
		t.Fatal("HubBitset(1) != nil for a low-degree vertex")
	}
}

func TestHasEdgeViaHubIndex(t *testing.T) {
	g := hubTestGraph(80)
	// Record the truth before any index exists.
	type pair struct{ u, v VertexID }
	truth := map[pair]bool{}
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range []VertexID{0, 1, 2, 40, 79} {
			truth[pair{u, v}] = g.HasEdge(u, v)
		}
	}
	g.EnsureHubIndex() // vertex 0 (degree 80) crosses the automatic threshold
	if g.NumHubs() != 1 {
		t.Fatalf("NumHubs = %d, want 1", g.NumHubs())
	}
	for p, want := range truth {
		if got := g.HasEdge(p.u, p.v); got != want {
			t.Fatalf("HasEdge(%d,%d) = %v after hub build, want %v", p.u, p.v, got, want)
		}
	}
}

// TestHubIndexRace exercises the lazy build from many goroutines at once —
// probes, forced builds and edge checks racing on one snapshot. Run under
// -race this proves the sync.Once + atomic publication is clean.
func TestHubIndexRace(t *testing.T) {
	g := hubTestGraph(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (w + i) % 4 {
				case 0:
					if g.HubBitset(0) == nil {
						t.Error("HubBitset(0) = nil")
						return
					}
				case 1:
					if !g.HasEdge(0, VertexID(1+i%128)) {
						t.Errorf("HasEdge(0,%d) = false", 1+i%128)
						return
					}
				case 2:
					g.EnsureHubIndex()
				default:
					if g.NumHubs() != 1 {
						t.Error("NumHubs != 1")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestAdoptHubIndexOnLabeledViews(t *testing.T) {
	g := hubTestGraph(100)
	g.EnsureHubIndex()
	labels := make([]LabelID, g.NumVertices())
	lg := WithLabels(g, labels)
	// The labelled twin shares the adjacency, so it must share the built
	// index — same bitset pointer, no rebuild.
	if lg.HubBitset(0) != g.HubBitset(0) {
		t.Fatal("WithLabels view did not adopt the built hub index")
	}
	if lg.HubMinDegree() != 64 {
		t.Fatalf("adopted HubMinDegree = %d, want 64", lg.HubMinDegree())
	}
}

// TestDeltaCarriesHubThreshold: a new version derives the same hub
// threshold from its own size, and rebuilds its index instead of
// inheriting the parent's.
func TestDeltaCarriesHubThreshold(t *testing.T) {
	g := hubTestGraph(100)
	g.EnsureHubIndex()
	ng, _ := Apply(g, Delta{Insert: [][2]VertexID{{1, 90}}})
	if got := ng.HubMinDegree(); got != g.HubMinDegree() {
		t.Fatalf("post-Apply HubMinDegree = %d, want %d", got, g.HubMinDegree())
	}
	if idx := ng.hub.Load(); idx != nil {
		t.Fatal("new snapshot inherited a built hub index (adjacency changed — must rebuild lazily)")
	}
}

// TestNbrListContains checks the adaptive membership probe on both
// representations.
func TestNbrListContains(t *testing.T) {
	l := []VertexID{2, 4, 8, 16}
	plain := NbrList{List: l}
	hub := NbrList{List: l, Bits: NewBitsetFrom(32, l)}
	for _, v := range []VertexID{2, 16} {
		if !plain.Contains(v) || !hub.Contains(v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	for _, v := range []VertexID{0, 3, 31} {
		if plain.Contains(v) || hub.Contains(v) {
			t.Fatalf("Contains(%d) = true", v)
		}
	}
}

// TestCandidatesViews checks Len/Contains/Range agree between the list and
// bitset result representations.
func TestCandidatesViews(t *testing.T) {
	l := []VertexID{1, 5, 63, 64}
	list := Candidates{List: l}
	bits := Candidates{Bits: NewBitsetFrom(128, l)}
	if list.Len() != bits.Len() || list.Len() != 4 {
		t.Fatalf("Len mismatch: %d vs %d", list.Len(), bits.Len())
	}
	for v := VertexID(0); v < 128; v++ {
		if list.Contains(v) != bits.Contains(v) {
			t.Fatalf("Contains(%d) disagree", v)
		}
	}
	var a, b []VertexID
	list.Range(func(v VertexID) bool { a = append(a, v); return true })
	bits.Range(func(v VertexID) bool { b = append(b, v); return true })
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, l) {
		t.Fatalf("Range mismatch: %v vs %v", a, b)
	}
}
