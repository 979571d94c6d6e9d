package dataflow

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestBatchBasics(t *testing.T) {
	b := GetBatch(3, 4)
	if b.Rows() != 0 {
		t.Fatalf("empty batch rows = %d", b.Rows())
	}
	b.Append([]graph.VertexID{1, 2, 3})
	b.Append([]graph.VertexID{4, 5, 6})
	if b.Rows() != 2 {
		t.Fatalf("rows = %d", b.Rows())
	}
	r := b.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	if cap(b.Data) < 4*3 {
		t.Fatalf("capacity %d, want room for 4 rows of width 3", cap(b.Data))
	}
}

func TestBatchZeroWidthRows(t *testing.T) {
	b := &Batch{Width: 0}
	if b.Rows() != 0 {
		t.Fatal("zero-width batch should have 0 rows")
	}
}

func TestBatchSplitRows(t *testing.T) {
	b := GetBatch(2, 10)
	for i := 0; i < 10; i++ {
		b.Append([]graph.VertexID{graph.VertexID(i), graph.VertexID(i + 100)})
	}
	chunks := b.SplitRows(3)
	total := 0
	for _, c := range chunks {
		total += c.Rows()
		if c.Width != 2 {
			t.Fatalf("chunk width %d", c.Width)
		}
	}
	if total != 10 {
		t.Fatalf("chunks cover %d rows, want 10", total)
	}
	// Chunks must be contiguous and ordered.
	if chunks[0].Row(0)[0] != 0 {
		t.Fatalf("first chunk starts at %v", chunks[0].Row(0))
	}
	// More splits than rows.
	small := GetBatch(1, 2)
	small.Append([]graph.VertexID{7})
	if got := small.SplitRows(5); len(got) != 1 || got[0].Rows() != 1 {
		t.Fatalf("SplitRows over-split: %v", got)
	}
	// Empty batch splits to nothing.
	if got := GetBatch(1, 1).SplitRows(4); len(got) != 0 {
		t.Fatalf("empty split = %v", got)
	}
}

func validFlow() *Dataflow {
	return &Dataflow{Stages: []*Stage{{
		ID:           0,
		Scan:         &EdgeScan{QA: 0, QB: 1},
		SourceLayout: []int{0, 1},
		Extends: []*Extend{{
			ExtSlots: []int{0, 1}, TargetQV: 2, VerifySlot: -1, OutLayout: []int{0, 1, 2},
		}},
		Terminal: Terminal{Sink: true},
	}}}
}

func TestValidateAccepts(t *testing.T) {
	if err := validFlow().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(d *Dataflow)
	}{
		{"empty", func(d *Dataflow) { d.Stages = nil }},
		{"bad id", func(d *Dataflow) { d.Stages[0].ID = 7 }},
		{"two sources", func(d *Dataflow) { d.Stages[0].JoinSrc = &Join{} }},
		{"no source", func(d *Dataflow) { d.Stages[0].Scan = nil }},
		{"bad scan layout", func(d *Dataflow) { d.Stages[0].SourceLayout = []int{0} }},
		{"ext slot range", func(d *Dataflow) { d.Stages[0].Extends[0].ExtSlots = []int{9} }},
		{"bad out width", func(d *Dataflow) { d.Stages[0].Extends[0].OutLayout = []int{0} }},
		{"filter slot range", func(d *Dataflow) {
			d.Stages[0].Extends[0].NewFilters = []NewFilter{{Slot: 99}}
		}},
		{"no sink", func(d *Dataflow) { d.Stages[0].Terminal = Terminal{} }},
		{"verify slot range", func(d *Dataflow) {
			d.Stages[0].Extends[0].TargetQV = -1
			d.Stages[0].Extends[0].VerifySlot = 42
		}},
		{"verify width change", func(d *Dataflow) {
			d.Stages[0].Extends[0].TargetQV = -1
			d.Stages[0].Extends[0].VerifySlot = 0
			// OutLayout still has width+1: invalid for verify.
		}},
	}
	for _, c := range cases {
		d := validFlow()
		c.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid dataflow", c.name)
		}
	}
}

func TestValidateJoinStages(t *testing.T) {
	mk := func() *Dataflow {
		feed := func(id, consumer, side int) *Stage {
			return &Stage{
				ID: id, Scan: &EdgeScan{QA: side, QB: side + 1}, SourceLayout: []int{side, side + 1},
				Terminal: Terminal{KeySlots: []int{1}, ConsumerStage: consumer, Side: side},
			}
		}
		return &Dataflow{Stages: []*Stage{
			feed(0, 2, 0),
			feed(1, 2, 1),
			{
				ID: 2,
				JoinSrc: &Join{
					LeftStage: 0, RightStage: 1,
					LeftKey: []int{1}, RightKey: []int{1},
					RightCopy: []int{1}, OutLayout: []int{0, 1, 2},
				},
				SourceLayout: []int{0, 1, 2},
				Terminal:     Terminal{Sink: true},
			},
		}}
	}
	if err := mk().Validate(); err != nil {
		t.Fatal(err)
	}
	// Join referencing a later stage.
	d := mk()
	d.Stages[2].JoinSrc.LeftStage = 2
	if err := d.Validate(); err == nil {
		t.Error("accepted join referencing itself")
	}
	// Feeder wired to the wrong consumer.
	d = mk()
	d.Stages[0].Terminal.ConsumerStage = 99
	if err := d.Validate(); err == nil {
		t.Error("accepted mis-wired feeder")
	}
	// Mismatched key widths.
	d = mk()
	d.Stages[2].JoinSrc.RightKey = []int{0, 1}
	if err := d.Validate(); err == nil {
		t.Error("accepted mismatched join keys")
	}
	// Swapped feed sides.
	d = mk()
	d.Stages[0].Terminal.Side = 1
	d.Stages[1].Terminal.Side = 0
	if err := d.Validate(); err == nil {
		t.Error("accepted mislabelled sides")
	}
}

func TestDataflowString(t *testing.T) {
	s := validFlow().String()
	for _, want := range []string{"SCAN", "PULL-EXTEND", "SINK"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}
