package main

// Inputs: the data graphs, the update deltas and the ad-hoc pattern pool.
//
// The data graphs are the repository's named stand-in datasets (LJ, OR, EU
// from internal/gen) with their catalogued generator seeds, as fixed across
// runs as the real LiveJournal is: the run-to-run spread of a timing then
// measures the system, not which power-law graph the seed happened to
// draw (triangle counts differ by ±5% and q2 time by 2x across generator
// seeds). --seed drives the traffic instead: the update stream, the order
// of requests inside a pass or block, the ad-hoc pattern pool and its
// order, and every sampled vertex, pair and row of the layer probes.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/huge"
	"repro/internal/gen"
	"repro/internal/graph"
)

// sizes scales every workload; tiny is the smoke-test scale, at which
// counts are also checked against the ground-truth enumerator.
type sizes struct {
	tiny bool

	ljScale, orScale, euScale int // dataset scale multipliers at full size
	tinyV                     int // vertices of every tiny graph

	roundOps    int // requests per topk round
	applyOps    int // Applies per churn/durable round: a multiple of the store's compaction interval
	primeOps    int // requests/Applies issued while setting up
	setupReps   int // set-ups per run; setup_s is their median
	minRounds   int // passes/rounds measured however short the window
	deltaEvery  int // churn: a Q1().Delta() count follows every n-th Apply
	recountEach int // churn: a full triangle count follows every n-th Apply
	opensPerImg int // durable: huge.Open calls per crash image
	// durable: the store compacts every compactEvery Applies (0 = the store's
	// default, 256); a crash image is taken at the round's first epoch that
	// is imageAt past a compaction, and AsOf travels asofBack epochs back.
	compactEvery, imageAt, asofBack int
	adhocPool                       int // topk: distinct ad-hoc patterns (> plan cache capacity)
	pairs                           int // sampled adjacency pairs of the intersection probes
	probeN                          int // iterations of the other layer probes
}

func fullSizes() sizes {
	return sizes{
		ljScale: 1, orScale: 1, euScale: 1,
		roundOps: 1000, applyOps: 512, primeOps: 200, setupReps: 3, minRounds: 3,
		deltaEvery: 30, recountEach: 256, opensPerImg: 5, adhocPool: 512,
		imageAt: 200, asofBack: 100,
		pairs: 100_000, probeN: 1_000_000,
	}
}

func tinySizes() sizes {
	return sizes{
		tiny: true, tinyV: 400, ljScale: 1, orScale: 1, euScale: 1,
		roundOps: 300, applyOps: 160, primeOps: 20, setupReps: 1, minRounds: 1,
		deltaEvery: 30, recountEach: 80, opensPerImg: 2, adhocPool: 24,
		compactEvery: 32, imageAt: 25, asofBack: 10,
		pairs: 2000, probeN: 20_000,
	}
}

// nominalRoundS is what one pass (count, cluster) or round (topk, churn,
// durable) took, in seconds, on the machine the first baseline was recorded
// on. It only sizes the window.
var nominalRoundS = map[string]float64{"count": 4.0, "topk": 0.66, "churn": 1.6, "durable": 1.1, "cluster": 4.2}

// rounds turns the window's length into a fixed amount of work: the number
// of whole passes/rounds that fill seconds on the nominal machine. A window
// closed by the clock would let a slow spell of the machine decide how many
// rounds run — and Apply cost climbs with the overlay between compactions,
// so the median round would move with the machine, not the program.
func (sz sizes) rounds(workload string, seconds float64) int {
	return max(int(seconds/nominalRoundS[workload]+0.5), sz.minRounds)
}

// setups is how many times a run sets up: setupReps, once on a traced run.
func (sz sizes) setups(trace bool) int {
	if trace {
		return 1
	}
	return sz.setupReps
}

// numVertexLabels is the Zipf vertex-label alphabet of the labelled LJ.
const numVertexLabels = 8

// dataset builds one named graph at the workload's scale multiplier
// (count/cluster x1, churn LJ x2, topk/durable LJ x4).
func (sz sizes) dataset(name string, mult int, labelled bool) *graph.Graph {
	var g *graph.Graph
	switch {
	case sz.tiny && name == "EU":
		g = gen.Road(sz.tinyV, 0.02, 46)
	case sz.tiny && name == "OR":
		g = gen.PowerLaw(sz.tinyV, 12, 44)
	case sz.tiny:
		g = gen.PowerLaw(sz.tinyV*mult, 6, 43)
	default:
		g = gen.ByName(name, mult)
	}
	if labelled {
		g = gen.ZipfLabels(g, numVertexLabels, 1.8, 7)
	}
	return g
}

// edgesPerDelta is how many edge updates each Apply carries.
const edgesPerDelta = 4

// deltas chunks a seeded insert/delete stream into n 4-edge Deltas.
func deltas(g *graph.Graph, n int, seed int64) []huge.Delta {
	stream := gen.UpdateStream(g, n*edgesPerDelta, seed)
	out := make([]huge.Delta, 0, n)
	for lo := 0; lo+edgesPerDelta <= len(stream); lo += edgesPerDelta {
		var d huge.Delta
		for _, u := range stream[lo : lo+edgesPerDelta] {
			e := [2]huge.VertexID{u.U, u.V}
			if u.Del {
				d.Delete = append(d.Delete, e)
			} else {
				d.Insert = append(d.Insert, e)
			}
		}
		out = append(out, d)
	}
	return out
}

// adhoc is one entry of the ad-hoc pool: the pattern as a client would
// send it, and the query parsed from it once (for verifying matches).
type adhoc struct {
	text string
	q    *huge.Query
}

var adhocShapes = []struct {
	name  string
	edges [][2]int
}{
	{"triangle", [][2]int{{0, 1}, {1, 2}, {0, 2}}},
	{"square", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	{"clique4", [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
}

// adhocText renders a label-constrained pattern in the ParsePattern syntax;
// labels[v] < 0 leaves vertex v unconstrained.
func adhocText(edges [][2]int, labels []int) string {
	vertex := func(v int) string {
		if labels[v] < 0 {
			return fmt.Sprintf("(v%d)", v)
		}
		return fmt.Sprintf("(v%d:%d)", v, labels[v])
	}
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = vertex(e[0]) + "-" + vertex(e[1])
	}
	return strings.Join(parts, ", ")
}

// adhocPool draws n label-constrained triangle/square/4-clique patterns
// with pairwise distinct canonical fingerprints, each with at least k
// matches on sys's graph (probed with Limit(k), so that every ad-hoc
// request of the workload returns exactly k matches and none degenerates
// into a full enumeration that comes up short).
func adhocPool(sys *huge.System, n, k int, rng *rand.Rand) ([]adhoc, error) {
	ctx := context.Background()
	seen := map[string]bool{}
	var pool []adhoc
	for tries := 0; len(pool) < n; tries++ {
		if tries > 200*n {
			return nil, fmt.Errorf("adhoc pool: only %d of %d patterns with >= %d matches after %d draws", len(pool), n, k, tries)
		}
		shape := adhocShapes[rng.Intn(len(adhocShapes))]
		nv := 0
		for _, e := range shape.edges {
			nv = max(nv, e[0]+1, e[1]+1)
		}
		labels := make([]int, nv)
		for v := range labels {
			labels[v] = -1
			if rng.Intn(2) == 0 {
				labels[v] = rng.Intn(numVertexLabels)
			}
		}
		text := adhocText(shape.edges, labels)
		q, _, err := huge.ParsePattern(shape.name, text)
		if err != nil {
			return nil, fmt.Errorf("adhoc pool: %q: %w", text, err)
		}
		if fp := q.Fingerprint(); seen[fp] {
			continue
		} else {
			seen[fp] = true
		}
		res, err := sys.Exec(ctx, q, huge.Limit(k), huge.CountOnly()).Wait()
		if err != nil {
			return nil, fmt.Errorf("adhoc pool: probing %q: %w", text, err)
		}
		if res.Count == uint64(k) {
			pool = append(pool, adhoc{text: text, q: q})
		}
	}
	return pool, nil
}

// samplePairs draws n adjacency-list pairs (Neighbors(u), Neighbors(v)) of
// edges (u,v) — the operands a triangle-closing intersection sees. With
// hubOnly, at least one endpoint of every pair carries a hub bitset.
func samplePairs(g *graph.Graph, n int, hubOnly bool, rng *rand.Rand) [][2]graph.VertexID {
	var pairs [][2]graph.VertexID
	nv := g.NumVertices()
	for tries := 0; len(pairs) < n && tries < 200*n; tries++ {
		u := graph.VertexID(rng.Intn(nv))
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		v := nb[rng.Intn(len(nb))]
		if hubOnly && g.HubBitset(u) == nil && g.HubBitset(v) == nil {
			continue
		}
		pairs = append(pairs, [2]graph.VertexID{u, v})
	}
	return pairs
}
