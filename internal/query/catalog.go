package query

// The paper's query set (Figure 4). The figure itself is not machine-
// readable in the source text, so the shapes are reconstructed from the
// in-text statements: Table 1 calls the 4-cycle "the square query"; Exp-2
// states q3 is a clique; Exp-9 states q7 decomposes into a 3-path joined
// with a 2-path; the listed symmetry-breaking constraints pin down vertex
// counts and automorphism-group sizes. q1's and q2's derived constraints
// match the figure caption exactly (q1: v1<v2, v1<v3, v1<v4, v2<v4;
// q2: v1<v3, v2<v4; q7: v1<v6).

// Q1 is the square (4-cycle) — the Table 1 query.
func Q1() *Query {
	return New("q1-square", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
}

// Q2 is the diamond: a 4-cycle with one chord.
func Q2() *Query {
	return New("q2-diamond", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}})
}

// Q3 is the 4-clique (stated in-text to be a clique).
func Q3() *Query {
	return New("q3-4clique", [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
}

// Q4 is the house: a triangle on top of a square (5 vertices).
func Q4() *Query {
	return New("q4-house", [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}})
}

// Q5 is a 4-cycle with a pendant vertex (5 vertices, one symmetric pair).
func Q5() *Query {
	return New("q5-tailed-square", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}})
}

// Q6 is the 3-rung ladder (two squares sharing an edge, 6 vertices) — the
// paper's long-running memory-crisis query. Its middle rung v3–v4 is a
// separator: a counting run scans the rung under {v3 < v4, v1 < v5}
// (Query.OrdersBy) and adds, per rung, half the vertex-disjoint ordered
// pairs of the side completions (x, y), x ~ v3 and y ~ v4, in closed form
// (dataflow.RungSeparator) instead of enumerating the squares through it.
func Q6() *Query {
	return New("q6-ladder", [][2]int{{0, 1}, {2, 3}, {4, 5}, {0, 2}, {2, 4}, {1, 3}, {3, 5}})
}

// Q7 is the 5-path (6 vertices). Exp-9's hybrid plan joins a 3-path with a
// 2-path via PUSH-JOIN; a counting run now enumerates the middle 3-path
// and counts the two ends per row in closed form instead. Its orders are
// {v1 < v6}, on those ends; a counting run breaks the same symmetry with
// v3 < v4 on the 3-path instead (Query.OrdersBy), so it enumerates each
// 3-path once and counts the ends as an unordered pair.
func Q7() *Query {
	return New("q7-5path", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
}

// Q8 is the triangular prism (6 vertices, 9 edges): a dense query whose
// hybrid plans differ across optimisers, standing in for the paper's q8.
func Q8() *Query {
	return New("q8-prism", [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}})
}

// Triangle is the 3-clique, used by examples and tests.
func Triangle() *Query {
	return New("triangle", [][2]int{{0, 1}, {1, 2}, {0, 2}})
}

// Catalog returns q1..q8 in paper order.
func Catalog() []*Query {
	return []*Query{Q1(), Q2(), Q3(), Q4(), Q5(), Q6(), Q7(), Q8()}
}

// ByName returns a catalog query ("q1".."q8", "triangle") or nil.
func ByName(name string) *Query {
	switch name {
	case "q1":
		return Q1()
	case "q2":
		return Q2()
	case "q3":
		return Q3()
	case "q4":
		return Q4()
	case "q5":
		return Q5()
	case "q6":
		return Q6()
	case "q7":
		return Q7()
	case "q8":
		return Q8()
	case "triangle":
		return Triangle()
	}
	return nil
}
