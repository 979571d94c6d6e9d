// Package dataflow defines the dataflow graph HUGE executes (Section 4.2 of
// the paper): a DAG of operators — SCAN, PULL-EXTEND, PUSH-JOIN, SINK —
// over batches of partial matches. The planner (internal/plan) translates an
// execution plan into a Dataflow; the engine (internal/engine) runs it on a
// simulated cluster.
//
// A Dataflow is organised as a topologically-ordered list of Stages. Each
// stage is a line graph: a source (edge SCAN or the output of a PUSH-JOIN),
// a chain of PULL-EXTEND operators, and a terminal (SINK, or a feed that
// shuffles results into one side of a downstream PUSH-JOIN). This mirrors
// Section 5.4: subplans separated by PUSH-JOIN barriers, each internally
// scheduled by the BFS/DFS-adaptive scheduler.
package dataflow

import (
	"fmt"
	"slices"
	"strings"
)

// OrderFilter requires p[SlotA] < p[SlotB] on a tuple (symmetry breaking).
type OrderFilter struct {
	SlotA, SlotB int
}

// NewFilter constrains the candidate vertex of a PULL-EXTEND against an
// existing slot: candidate < p[Slot] if NewLess, else candidate > p[Slot].
// The engine turns an extend's filters into one candidate range per input
// tuple and narrows the intersection's operands to it up front.
type NewFilter struct {
	Slot    int
	NewLess bool
}

// EdgeScan is the SCAN(edge) source: it emits one tuple (u, v) per data edge
// with u matched to query vertex QA (slot 0) and v to QB (slot 1), subject
// to Filters. Every data edge is emitted in both directions unless a filter
// prunes one.
//
// LabelA / LabelB constrain the data labels of the two endpoints (-1 = any
// label). A label-constrained scan seeds from the graph's per-label vertex
// index instead of the machine's full vertex range. Note the zero value is
// label 0, which every vertex of an unlabelled graph carries — harmless
// there, a genuine constraint on labelled graphs; the planner always sets
// both fields explicitly.
//
// EdgeLabel constrains the data label of the scanned edge itself (-1 =
// any). An edge-label-constrained scan seeds from the graph's
// (srcLabel, edgeLabel) triple index, so only vertices with at least one
// qualifying incident edge are walked. The zero-value caveat above applies
// here too.
type EdgeScan struct {
	QA, QB         int
	LabelA, LabelB int
	EdgeLabel      int
	Filters        []OrderFilter
}

// DeltaScan is the SCAN(Δedge) source of delta-mode enumeration: instead of
// every data edge, it emits one tuple per *delta* edge — the engine run's
// pinned edge set (engine.Config.DeltaEdges) — in both orientations,
// subject to the same label constraints and order filters as EdgeScan.
// Difference-based rewriting pins one query edge on the delta per scan;
// Extend.OldEdgeSlots excludes delta edges from the earlier query-edge
// positions so no embedding is counted twice across the rewritten scans.
// EdgeLabel constrains the data label of the pinned edge, as in EdgeScan.
type DeltaScan struct {
	QA, QB         int
	LabelA, LabelB int
	EdgeLabel      int
	Filters        []OrderFilter
}

// Extend is the PULL-EXTEND operator (Section 4.4). For each input tuple p
// it computes C = ∩_{s ∈ ExtSlots} N_G(p[s]) — pulling remote adjacency via
// the cache/RPC layer — and either:
//
//   - TargetQV >= 0: emits p + {c} for each c ∈ C that is distinct from all
//     existing slots and satisfies NewFilters (normal extension), or
//   - TargetQV < 0:  emits p unchanged iff p[VerifySlot] ∈ C (the verify
//     "hint" of Section 5.2 used when rewriting pulling-based hash joins).
type Extend struct {
	ExtSlots   []int
	TargetQV   int
	VerifySlot int
	// TargetLabel constrains the data label of the newly matched vertex
	// (-1 = any). Candidates failing it are dropped before the injectivity
	// check, in both the materialising and the compressed counting path.
	// Same zero-value caveat as EdgeScan.LabelA.
	TargetLabel int
	// EdgeLabels, when non-nil, is parallel to ExtSlots: entry i constrains
	// the data label of the edge this operator closes via slot i — the edge
	// (p[ExtSlots[i]], candidate) for a normal extension, or
	// (p[ExtSlots[i]], p[VerifySlot]) for a verify extend (-1 = any). It
	// shares the scan/extend candidate predicate with TargetLabel, so
	// vertex- and edge-label filtering are one path, not two.
	EdgeLabels []int
	// OldEdgeSlots, for delta-mode dataflows, lists the ext slots s whose
	// closed data edge (p[s], candidate) must NOT belong to the run's delta
	// edge set (engine.Config.DeltaEdges): the query edges at positions
	// before the pinned one are restricted to older-epoch edges, which is
	// what makes the per-pinned-edge scans a disjoint partition of the new
	// matches. Every entry must also appear in ExtSlots. Empty outside
	// delta mode.
	OldEdgeSlots []int
	NewFilters   []NewFilter
	OutLayout    []int // query vertex held by each output slot
	// Tail, when non-zero, marks the extend at which the sink stage's
	// independent tail is counted (plan.Translate sets it): this extend and
	// the Tail−1 after it, to the sink, match pairwise non-adjacent query
	// vertices whose neighbours the rows entering here have all matched.
	// Each target then draws from one candidate set fixed by the row, and a
	// counting run adds the number of injective, order-respecting picks in
	// closed form instead of running the rest of the stage: C(c, Tail) for
	// twins (one set, totally ordered), |A|·|B| − |A ∩ B| for two sets
	// without an order between them, and #{x < y} for two with one. An
	// unmarked final extend is the tail of one, counted as |C|.
	Tail int
}

// IsVerify reports whether this extend only verifies connectivity.
func (e *Extend) IsVerify() bool { return e.TargetQV < 0 }

// SameCandidates reports whether e and f, two extends of a tail entered by
// rows of width slots, draw from one candidate set on every such row: the
// same operands, target label, edge labels and old-edge restriction, and
// the same orders against those slots (an extend holds each order once).
func (e *Extend) SameCandidates(f *Extend, width int) bool {
	if !slices.Equal(e.ExtSlots, f.ExtSlots) || e.TargetLabel != f.TargetLabel ||
		!slices.Equal(e.EdgeLabels, f.EdgeLabels) || !slices.Equal(e.OldEdgeSlots, f.OldEdgeSlots) {
		return false
	}
	n := 0
	for _, x := range e.NewFilters {
		if x.Slot < width {
			if !slices.Contains(f.NewFilters, x) {
				return false
			}
			n++
		}
	}
	for _, x := range f.NewFilters {
		if x.Slot < width {
			n--
		}
	}
	return n == 0
}

// CountableTail reports whether the extends from the k-th on form a tail
// the engine can count: none verifies, each reads only the slots the rows
// entering the k-th hold, and beyond two targets all draw from one set.
func (s *Stage) CountableTail(k int) bool {
	tail := s.Extends[k:]
	width := len(tail[0].OutLayout) - 1
	for _, e := range tail {
		if e.IsVerify() || slices.ContainsFunc(e.ExtSlots, func(slot int) bool { return slot >= width }) {
			return false
		}
		if len(tail) > 2 && !e.SameCandidates(tail[0], width) {
			return false
		}
	}
	return true
}

// SeparatorShaped reports whether the stage's operators have the shape its
// Separator mark relies on: a sink stage scanning the separator's first
// vertex, with the extends of that shape and nothing else — for a rung, no
// label and no order but the rung's and x2's against x1. NoSeparator fits
// any stage. The query's own shape is the planner's to check.
func (s *Stage) SeparatorShaped() bool {
	ext := s.Extends
	slotsAre := func(e *Extend, slots ...int) bool {
		if e.IsVerify() || len(e.ExtSlots) != len(slots) {
			return false
		}
		for _, x := range slots {
			if !slices.Contains(e.ExtSlots, x) {
				return false
			}
		}
		return true
	}
	switch s.Separator {
	case NoSeparator:
		return true
	case WedgeSeparator:
		if !s.Terminal.Sink || s.Scan == nil || len(ext) < 2 || !slotsAre(ext[0], 1) {
			return false
		}
		for _, e := range ext[1:] {
			if !slotsAre(e, 0, 2) || len(e.OldEdgeSlots) > 0 {
				return false
			}
		}
		return true
	case RungSeparator:
		if !s.Terminal.Sink || s.Scan == nil || len(s.Scan.Filters) != 1 || len(ext) != 4 ||
			s.Scan.LabelA >= 0 || s.Scan.LabelB >= 0 || s.Scan.EdgeLabel >= 0 ||
			!slotsAre(ext[0], 0) || !slotsAre(ext[1], 1, 2) || !slotsAre(ext[2], 0) || !slotsAre(ext[3], 1, 4) ||
			len(ext[2].NewFilters) != 1 || ext[2].NewFilters[0].Slot != 2 {
			return false
		}
		for k, e := range ext {
			if e.TargetLabel >= 0 || e.EdgeLabels != nil || len(e.OldEdgeSlots) > 0 || k != 2 && len(e.NewFilters) > 0 {
				return false
			}
		}
		return true
	}
	return false
}

// Join is the PUSH-JOIN operator (Section 4.3): a buffered distributed hash
// join. Both feeding stages shuffle tuples by their key slots; after the
// barrier, each machine joins its buffered partitions locally.
type Join struct {
	LeftStage, RightStage int
	LeftKey, RightKey     []int         // key slot indices in each input layout
	RightCopy             []int         // right slots appended after the left tuple
	CrossFilters          []OrderFilter // on the output layout
	CrossDistinct         [][2]int      // output slot pairs that must differ
	OutLayout             []int
}

// Terminal describes what a stage does with its results.
type Terminal struct {
	// Sink is true for the final stage: results are counted/consumed.
	Sink bool
	// Group, on a sink, asks for grouped counting: every counted match also
	// increments the group named by its GroupSpec key. Only valid with Sink.
	Group *GroupSpec
	// KeySlots, for a join feed, give the shuffle key. ConsumerStage is the
	// stage whose JoinSource consumes this feed; Side is 0 (left) / 1 (right).
	KeySlots      []int
	ConsumerStage int
	Side          int
}

// Stage is one line-graph subplan.
type Stage struct {
	ID           int
	Scan         *EdgeScan  // exactly one of Scan / DeltaSrc / JoinSrc is non-nil
	DeltaSrc     *DeltaScan // delta-mode source over the run's pinned edge set
	JoinSrc      *Join
	SourceLayout []int // query vertex per slot of the source output
	Extends      []*Extend
	Terminal     Terminal
	// Separator, when set, marks a sink stage whose whole pattern a
	// counting run counts at a separator (plan.Translate sets it): a pair
	// of query vertices whose removal leaves isomorphic sides of one or two
	// vertices. Per image of the separator, each side's completions are
	// built once and their vertex-disjoint, order-respecting combinations
	// added in closed form; no extend runs and no row is produced. A run
	// that needs the rows runs the stage as it stands.
	Separator Separator
}

// Separator is the shape of a stage counted at its separator.
type Separator uint8

const (
	// NoSeparator: the stage counts at its tail, if it counts at all.
	NoSeparator Separator = iota
	// WedgeSeparator is K₂,ₖ: the stage scans (c1, t), its first extend
	// is the wedge step t ⇒ c2 (c1, c2 non-adjacent), and each of the k−1
	// later extends matches a twin of t over {c1, c2}. The separator is
	// (c1, c2) and its k = len(Extends) sides are the twins, each drawing
	// from P = N(c1) ∩ N(c2): a counting run tallies the wedges of each
	// scanned c1 per c2 and adds C(|P|, k) per (c1, c2).
	WedgeSeparator
	// RungSeparator is the ladder: the stage scans its middle rung (a, b)
	// under one order between a and b, and its four extends match two
	// sides, x1 from a and then y1 from {x1, b}, x2 from a and then y2
	// from {x2, b}, with x2 ordered against x1 and no other order. The
	// separator is the rung; each side draws from the same completions
	// P = {(x, y) : x ∈ N(a)∖{b}, y ∈ N(b)∖{a}, x ~ y}, and a counting run
	// adds half the vertex-disjoint ordered pairs of P per scanned rung.
	RungSeparator
)

// OutputLayout returns the layout of tuples leaving the stage.
func (s *Stage) OutputLayout() []int {
	if len(s.Extends) > 0 {
		return s.Extends[len(s.Extends)-1].OutLayout
	}
	return s.SourceLayout
}

// Dataflow is the complete executable plan.
type Dataflow struct {
	Stages []*Stage
}

// Validate checks structural invariants: stage ordering, layouts, slot
// bounds, and that the final stage sinks. It returns a descriptive error for
// the first violation found.
func (d *Dataflow) Validate() error {
	if len(d.Stages) == 0 {
		return fmt.Errorf("dataflow: no stages")
	}
	for i, s := range d.Stages {
		if s.ID != i {
			return fmt.Errorf("dataflow: stage %d has ID %d", i, s.ID)
		}
		sources := 0
		for _, has := range []bool{s.Scan != nil, s.DeltaSrc != nil, s.JoinSrc != nil} {
			if has {
				sources++
			}
		}
		if sources != 1 {
			return fmt.Errorf("dataflow: stage %d must have exactly one source", i)
		}
		if (s.Scan != nil || s.DeltaSrc != nil) && len(s.SourceLayout) != 2 {
			return fmt.Errorf("dataflow: stage %d edge scan layout must have 2 slots", i)
		}
		if s.JoinSrc != nil {
			j := s.JoinSrc
			if j.LeftStage >= i || j.RightStage >= i || j.LeftStage < 0 || j.RightStage < 0 {
				return fmt.Errorf("dataflow: stage %d join references stages %d,%d (not strictly earlier)", i, j.LeftStage, j.RightStage)
			}
			if len(j.LeftKey) != len(j.RightKey) || len(j.LeftKey) == 0 {
				return fmt.Errorf("dataflow: stage %d join has bad keys", i)
			}
			for _, side := range []int{j.LeftStage, j.RightStage} {
				t := d.Stages[side].Terminal
				if t.Sink || t.ConsumerStage != i {
					return fmt.Errorf("dataflow: stage %d does not feed join stage %d", side, i)
				}
			}
			if d.Stages[j.LeftStage].Terminal.Side != 0 || d.Stages[j.RightStage].Terminal.Side != 1 {
				return fmt.Errorf("dataflow: join stage %d feed sides mislabelled", i)
			}
		}
		width := len(s.SourceLayout)
		for k, e := range s.Extends {
			for _, slot := range e.ExtSlots {
				if slot < 0 || slot >= width {
					return fmt.Errorf("dataflow: stage %d extend %d ext slot %d out of range (width %d)", i, k, slot, width)
				}
			}
			if e.IsVerify() {
				if e.VerifySlot < 0 || e.VerifySlot >= width {
					return fmt.Errorf("dataflow: stage %d extend %d verify slot out of range", i, k)
				}
				if len(e.OutLayout) != width {
					return fmt.Errorf("dataflow: stage %d verify extend %d must keep width", i, k)
				}
			} else {
				if len(e.OutLayout) != width+1 {
					return fmt.Errorf("dataflow: stage %d extend %d out layout width %d, want %d", i, k, len(e.OutLayout), width+1)
				}
				width++
			}
			for _, f := range e.NewFilters {
				if f.Slot < 0 || f.Slot >= len(e.OutLayout) {
					return fmt.Errorf("dataflow: stage %d extend %d filter slot out of range", i, k)
				}
			}
			if e.EdgeLabels != nil && len(e.EdgeLabels) != len(e.ExtSlots) {
				return fmt.Errorf("dataflow: stage %d extend %d has %d edge labels for %d ext slots", i, k, len(e.EdgeLabels), len(e.ExtSlots))
			}
			for _, s := range e.OldEdgeSlots {
				if !slices.Contains(e.ExtSlots, s) {
					return fmt.Errorf("dataflow: stage %d extend %d old-edge slot %d not an ext slot", i, k, s)
				}
			}
			if e.Tail != 0 {
				switch {
				case !s.Terminal.Sink || e.IsVerify() || e.Tail < 2 || s.Separator != NoSeparator:
					return fmt.Errorf("dataflow: stage %d extend %d has a bad tail mark", i, k)
				case k != len(s.Extends)-e.Tail:
					return fmt.Errorf("dataflow: stage %d extend %d: a tail of %d must end at the sink", i, k, e.Tail)
				case !s.CountableTail(k):
					return fmt.Errorf("dataflow: stage %d extend %d: the tail reads its own slots, verifies, or has more than two sets", i, k)
				}
			}
		}
		if !s.SeparatorShaped() {
			return fmt.Errorf("dataflow: stage %d: the operators are not of the shape of separator %d", i, s.Separator)
		}
		if i == len(d.Stages)-1 {
			if !s.Terminal.Sink {
				return fmt.Errorf("dataflow: final stage must sink")
			}
		} else if s.Terminal.Sink {
			return fmt.Errorf("dataflow: stage %d sinks but is not final", i)
		}
		if s.Terminal.Group != nil {
			if !s.Terminal.Sink {
				return fmt.Errorf("dataflow: stage %d has a group spec but does not sink", i)
			}
			if err := s.Terminal.Group.validate(s.OutputLayout()); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders the dataflow for logs and tests, one operator per line.
func (d *Dataflow) String() string {
	var sb strings.Builder
	for _, s := range d.Stages {
		fmt.Fprintf(&sb, "stage %d:", s.ID)
		switch {
		case s.Scan != nil:
			fmt.Fprintf(&sb, " SCAN(v%d%s%sv%d%s)", s.Scan.QA+1, labelSuffix(s.Scan.LabelA), edgeLabelInfix(s.Scan.EdgeLabel), s.Scan.QB+1, labelSuffix(s.Scan.LabelB))
		case s.DeltaSrc != nil:
			fmt.Fprintf(&sb, " DELTA-SCAN(v%d%s%sv%d%s)", s.DeltaSrc.QA+1, labelSuffix(s.DeltaSrc.LabelA), edgeLabelInfix(s.DeltaSrc.EdgeLabel), s.DeltaSrc.QB+1, labelSuffix(s.DeltaSrc.LabelB))
		default:
			j := s.JoinSrc
			fmt.Fprintf(&sb, " PUSH-JOIN(stages %d⋈%d)", j.LeftStage, j.RightStage)
		}
		for _, e := range s.Extends {
			old := ""
			if len(e.OldEdgeSlots) > 0 {
				old = fmt.Sprintf(" old%v", e.OldEdgeSlots)
			}
			el := ""
			for _, l := range e.EdgeLabels {
				if l >= 0 {
					el = fmt.Sprintf(" el%v", e.EdgeLabels)
					break
				}
			}
			if e.IsVerify() {
				fmt.Fprintf(&sb, " -> VERIFY(%v%s%s)", e.ExtSlots, el, old)
			} else {
				fmt.Fprintf(&sb, " -> PULL-EXTEND(%v=>v%d%s%s%s)", e.ExtSlots, e.TargetQV+1, labelSuffix(e.TargetLabel), el, old)
			}
			if e.Tail > 0 {
				fmt.Fprintf(&sb, " [tail %d]", e.Tail)
			}
		}
		switch s.Separator {
		case WedgeSeparator:
			fmt.Fprintf(&sb, " [wedge separator, %d sides]", len(s.Extends))
		case RungSeparator:
			sb.WriteString(" [rung separator, 2 sides]")
		}
		if s.Terminal.Sink {
			sb.WriteString(" -> SINK")
		} else {
			fmt.Fprintf(&sb, " -> FEED(join@%d side %d)", s.Terminal.ConsumerStage, s.Terminal.Side)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// labelSuffix renders a label constraint for String (empty for wildcards).
func labelSuffix(l int) string {
	if l < 0 {
		return ""
	}
	return fmt.Sprintf(":L%d", l)
}

// edgeLabelInfix renders an edge-label constraint between two scan
// endpoints ("-" for wildcards, "-[L<l>]-" when constrained).
func edgeLabelInfix(l int) string {
	if l < 0 {
		return "-"
	}
	return fmt.Sprintf("-[L%d]-", l)
}
