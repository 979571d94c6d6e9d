package query

// Canonical query fingerprints for plan caching: two queries that are the
// same pattern under a relabelling of their vertices (and carry equivalent
// symmetry-breaking constraints) must produce the same fingerprint, so a
// serving layer can reuse one optimised plan for both. The fingerprint is
// a canonical form, not a lossy hash: equal fingerprints imply isomorphic
// query graphs, so a cache keyed on it can never hand back a plan for a
// structurally different query.
//
// Label constraints are part of the canonical form: the vertex-label
// sequence — and, for edge-labelled queries, the edge-label sequence — is
// minimised jointly with the adjacency code and appended to the
// fingerprint, so two patterns that differ only in their label signature
// (e.g. a triangle over label 3 vs. over label 7, or over [transfer] vs.
// [owns] edges) never share a cache entry, while an unlabelled query's
// fingerprint is byte-identical to what it was before labels existed —
// warm caches stay warm.

import (
	"fmt"
	"slices"
	"strings"
)

// Fingerprint returns the query's canonical, relabelling-invariant cache
// key. Structure is encoded as the canonical adjacency code (see
// canonicalCode); the symmetry-breaking orders are represented by the
// ";auto" marker, since they are a deterministic function of the
// structure.
//
// The first call computes and memoises the code; the worst-case cost is
// exponential in MaxVertices but with degree-class and prefix pruning all
// catalog-sized queries (≤10 vertices) canonicalise in microseconds to
// milliseconds.
func (q *Query) Fingerprint() string {
	q.fpOnce.Do(func() { q.fp = q.computeFingerprint() })
	return q.fp
}

func (q *Query) computeFingerprint() string {
	code, _ := q.canonicalCode()
	return fmt.Sprintf("v%d;%s;auto", q.n, code)
}

// canonicalCode computes a canonical form of the query graph: the
// lexicographically smallest row-wise upper-triangle adjacency encoding
// over all vertex orderings that list degrees in non-increasing order
// (an isomorphism-invariant family, so the minimum is a canonical form).
// For labelled queries each position's comparison key is the (row, vertex
// label) pair — extended, for edge-labelled queries, by the labels of the
// edges closed against the prefix — so both label sequences are minimised
// jointly with the structure and the resulting code ends with ";l:" /
// ";el:" signature suffixes. Unlabelled queries produce exactly the code
// they always did. It returns the code and the vertex permutation that
// realises it (perm[i] = original vertex placed at canonical position i).
func (q *Query) canonicalCode() (string, []int) {
	n := q.n
	identity := func() []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	if q.IsClique() && !q.Labeled() && !q.EdgeLabeled() {
		// Every ordering yields the all-ones matrix; skip the search.
		// (A labelled clique still needs the search to canonicalise its
		// label sequences.)
		return fmt.Sprintf("K%d", n), identity()
	}

	// Canonical positions must list degrees in non-increasing order.
	degSeq := make([]int, n)
	byDeg := identity()
	slices.SortStableFunc(byDeg, func(a, b int) int { return q.Degree(b) - q.Degree(a) })
	for i, v := range byDeg {
		degSeq[i] = q.Degree(v)
	}

	// keys[i] is the comparison key of canonical position i. Element 0
	// packs (adjacency row, vertex label + 1): the row in the high bits,
	// the label constraint (AnyLabel → 0) in the low 20 bits, so
	// lexicographic comparison orders first by structure, then by vertex
	// label. For edge-labelled queries, elements 1..i hold the labels of
	// the edges closed against prefix positions 0..i-1 (0 = no edge,
	// 1 = wildcard edge, l+2 = edge constrained to label l), so the
	// edge-label sequence participates in the same joint minimisation.
	// Edge-unlabelled queries have width-1 keys and search exactly as the
	// edge-label-free code did.
	labelKey := func(v int) uint64 { return uint64(q.Label(v) + 1) }
	el := q.EdgeLabeled()
	keys := make([][]uint64, n)
	for i := range keys {
		w := 1
		if el {
			w = 1 + i
		}
		keys[i] = make([]uint64, w)
	}
	perm := make([]int, n)
	used := make([]bool, n)
	var best [][]uint64
	var bestPerm []int

	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if best == nil || lexLess(keys, best) {
				best = make([][]uint64, n)
				for j := range keys {
					best[j] = append([]uint64(nil), keys[j]...)
				}
				bestPerm = append([]int(nil), perm...)
			}
			return
		}
		for c := 0; c < n; c++ {
			if used[c] || q.Degree(c) != degSeq[i] {
				continue
			}
			var row uint64
			for j := 0; j < i; j++ {
				hasEdge := q.HasEdge(c, perm[j])
				if hasEdge {
					row |= 1 << j
				}
				if el {
					var ek uint64
					if hasEdge {
						ek = uint64(q.EdgeLabelBetween(c, perm[j])) + 2 // AnyLabel → 1
					}
					keys[i][1+j] = ek
				}
			}
			keys[i][0] = row<<20 | labelKey(c)
			// Prune any branch whose prefix already exceeds the best code:
			// the first difference of a lexicographic comparison lies inside
			// the prefix, so no completion can beat it.
			if best != nil && prefixGreater(keys[:i+1], best[:i+1]) {
				continue
			}
			perm[i] = c
			used[c] = true
			rec(i + 1)
			used[c] = false
		}
	}
	rec(0)

	var sb strings.Builder
	for _, k := range best {
		fmt.Fprintf(&sb, "%03x", k[0]>>20)
	}
	if q.Labeled() {
		sb.WriteString(";l:")
		for i, v := range bestPerm {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%d", q.Label(v))
		}
	}
	if el {
		// Edge labels in fixed (position, prefix-position) order; which
		// pairs are edges is already encoded by the structure code, so
		// printing the labels alone is unambiguous.
		sb.WriteString(";el:")
		first := true
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if !q.HasEdge(bestPerm[i], bestPerm[j]) {
					continue
				}
				if !first {
					sb.WriteString(",")
				}
				first = false
				if l := q.EdgeLabelBetween(bestPerm[i], bestPerm[j]); l == AnyLabel {
					sb.WriteString("*")
				} else {
					fmt.Fprintf(&sb, "%d", l)
				}
			}
		}
	}
	return sb.String(), bestPerm
}

// lexLess and prefixGreater compare position-key sequences
// lexicographically, position by position and element by element (keys at
// equal positions always have equal width).
func lexLess(a, b [][]uint64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return a[i][j] < b[i][j]
			}
		}
	}
	return false
}

func prefixGreater(a, b [][]uint64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return a[i][j] > b[i][j]
			}
		}
	}
	return false
}
