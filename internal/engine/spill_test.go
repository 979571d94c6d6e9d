package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
)

func collectRows(t *testing.T, it rowSource) [][]graph.VertexID {
	t.Helper()
	var out [][]graph.VertexID
	for {
		row, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, append([]graph.VertexID(nil), row...))
	}
}

func TestRelationInMemorySorted(t *testing.T) {
	r := NewRelation(2, []int{0}, 0, nil)
	rows := [][]graph.VertexID{{3, 1}, {1, 2}, {2, 9}, {1, 1}}
	for _, row := range rows {
		if err := r.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if r.Rows() != 4 {
		t.Fatalf("Rows = %d", r.Rows())
	}
	it, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := collectRows(t, it)
	for i := 1; i < len(got); i++ {
		if got[i-1][0] > got[i][0] {
			t.Fatalf("not key-sorted: %v", got)
		}
	}
	if got[0][0] != 1 || got[len(got)-1][0] != 3 {
		t.Fatalf("order wrong: %v", got)
	}
}

func TestRelationSpillAndMerge(t *testing.T) {
	const rows = 1000
	r := NewRelation(3, []int{1}, 64, nil) // spill every 64 rows
	r.metrics = &metrics.Metrics{}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < rows; i++ {
		if err := r.Add([]graph.VertexID{
			graph.VertexID(rng.Intn(100)), graph.VertexID(rng.Intn(50)), graph.VertexID(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.runs) != rows/64 {
		t.Fatalf("spilled %d runs, want %d", len(r.runs), rows/64)
	}
	if runs, bytes := r.metrics.JoinSpillRuns.Load(), r.metrics.JoinSpillBytes.Load(); runs != rows/64 || bytes != rows/64*64*3*4 {
		t.Fatalf("metrics count %d runs / %d bytes, want %d / %d", runs, bytes, rows/64, rows/64*64*3*4)
	}
	it, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, it)
	if len(got) != rows {
		t.Fatalf("merged %d rows, want %d", len(got), rows)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][1] > got[i][1] {
			t.Fatalf("merge not key-sorted at %d: %v -> %v", i, got[i-1], got[i])
		}
	}
	// Every original row must survive exactly once (slot 2 is unique).
	seen := make([]bool, rows)
	for _, row := range got {
		if seen[row[2]] {
			t.Fatalf("row %v duplicated", row)
		}
		seen[row[2]] = true
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRelationSpillHookAccounting(t *testing.T) {
	var spilled int
	r := NewRelation(1, []int{0}, 10, func(rows int) { spilled += rows })
	for i := 0; i < 35; i++ {
		if err := r.Add([]graph.VertexID{graph.VertexID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if spilled < 30 {
		t.Fatalf("spill hook saw %d rows", spilled)
	}
	it, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := collectRows(t, it); len(got) != 35 {
		t.Fatalf("rows after spill = %d", len(got))
	}
}

func TestRelationEmptyFinalize(t *testing.T) {
	r := NewRelation(2, []int{0}, 0, nil)
	it, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := collectRows(t, it); len(got) != 0 {
		t.Fatalf("empty relation produced %v", got)
	}
}

func TestRelationTieBreakFullRow(t *testing.T) {
	// Same key: ordering falls back to the whole row, so merge output is
	// fully deterministic.
	r := NewRelation(2, []int{0}, 2, nil)
	for _, row := range [][]graph.VertexID{{5, 3}, {5, 1}, {5, 2}, {5, 0}} {
		if err := r.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	it, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := collectRows(t, it)
	for i := 1; i < len(got); i++ {
		if got[i-1][1] > got[i][1] {
			t.Fatalf("tie-break not applied: %v", got)
		}
	}
}

// randomRows draws n rows whose slots each vary over a different number of
// bytes (slot s over the low s+1 bytes, capped at all four), so the radix
// passes skip different bytes in every slot.
func randomRows(rng *rand.Rand, n, width int) [][]graph.VertexID {
	rows := make([][]graph.VertexID, n)
	for i := range rows {
		rows[i] = make([]graph.VertexID, width)
		for s := range rows[i] {
			rows[i][s] = graph.VertexID(rng.Uint64() & (1<<(8*min(s+1, 4)) - 1))
			if rng.Intn(4) == 0 {
				rows[i][s] %= 3 // key and row ties
			}
		}
	}
	return rows
}

// TestRelationSortDifferential: the radix-sorted, possibly spilled and
// merged output equals a comparator sort of the same rows by (key, row) —
// for one-, two- and three-slot keys (the last does not pack into one
// uint64), with no, some and many runs.
func TestRelationSortDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		width int
		keys  []int
	}{
		{1, []int{0}}, {2, []int{1}}, {3, []int{2, 0}}, {4, []int{1, 2}},
		{4, []int{3, 0, 1}}, {5, []int{4, 2, 0}}, {5, []int{0, 1, 2, 3, 4}},
	} {
		for _, limit := range []int{0, 7, 64, 5000} {
			rows := randomRows(rng, 3000+rng.Intn(3000), tc.width)
			r := NewRelation(tc.width, tc.keys, limit, nil)
			for _, row := range rows {
				if err := r.Add(row); err != nil {
					t.Fatal(err)
				}
			}
			it, err := r.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			got := collectRows(t, it)
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(rows, func(a, b []graph.VertexID) int {
				for _, k := range tc.keys {
					if a[k] != b[k] {
						return int(int64(a[k]) - int64(b[k]))
					}
				}
				return slices.Compare(a, b)
			})
			if !reflect.DeepEqual(got, rows) {
				t.Fatalf("width %d keys %v limit %d: output differs from the comparator sort", tc.width, tc.keys, limit)
			}
		}
	}
}

// spillState is what a relation left on disk: its run table and file bytes.
func spillState(t *testing.T, r *Relation) ([]runSpan, []byte) {
	t.Helper()
	data, err := os.ReadFile(r.file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return r.runs, data
}

// TestAddRowsMatchesAdd: slabs that straddle the spill threshold produce
// exactly the runs (same spans, same bytes) and the same remainder as
// row-at-a-time Adds — AddRows spills at limitRows, not at slab ends.
func TestAddRowsMatchesAdd(t *testing.T) {
	const width, limit = 3, 50
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 777, width)
	byRow := NewRelation(width, []int{1}, limit, nil)
	defer byRow.Discard()
	var spilledBySlab int
	bySlab := NewRelation(width, []int{1}, limit, func(n int) { spilledBySlab += n })
	defer bySlab.Discard()
	var slab []graph.VertexID
	next := 1
	for i, row := range rows {
		if err := byRow.Add(row); err != nil {
			t.Fatal(err)
		}
		slab = append(slab, row...)
		if len(slab)/width == next || i == len(rows)-1 {
			if err := bySlab.AddRows(slab); err != nil {
				t.Fatal(err)
			}
			slab, next = slab[:0], 1+rng.Intn(3*limit) // 1..150 rows: up to three thresholds per slab
		}
	}
	wantRuns, wantBytes := spillState(t, byRow)
	gotRuns, gotBytes := spillState(t, bySlab)
	if len(wantRuns) != len(rows)/limit || !reflect.DeepEqual(gotRuns, wantRuns) || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("AddRows left %d runs (%d bytes), Add %d (%d bytes); want them identical", len(gotRuns), len(gotBytes), len(wantRuns), len(wantBytes))
	}
	if spilledBySlab != len(wantRuns)*limit || bySlab.Rows() != byRow.Rows() || bySlab.Rows() != len(rows)%limit {
		t.Fatalf("AddRows: hook saw %d rows spilled, %d buffered; want %d, %d", spilledBySlab, bySlab.Rows(), len(wantRuns)*limit, len(rows)%limit)
	}
}

// TestRelationConcurrentFeeders: two feeders hand slabs to one relation at
// once (meaningful under -race): every row comes back exactly once, in key
// order.
func TestRelationConcurrentFeeders(t *testing.T) {
	const perFeeder, limit = 4000, 300
	r := NewRelation(2, []int{0}, limit, nil)
	var wg sync.WaitGroup
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			for sent := 0; sent < perFeeder; {
				n := min(1+rng.Intn(64), perFeeder-sent)
				slab := make([]graph.VertexID, 0, 2*n)
				for i := 0; i < n; i++ {
					slab = append(slab, graph.VertexID(rng.Intn(100)), graph.VertexID(f*perFeeder+sent+i))
				}
				if err := r.AddRows(slab); err != nil {
					t.Error(err)
					return
				}
				sent += n
			}
		}(f)
	}
	wg.Wait()
	it, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, it)
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 2*perFeeder)
	for i, row := range got {
		if i > 0 && got[i-1][0] > row[0] {
			t.Fatalf("not key-sorted at %d: %v -> %v", i, got[i-1], row)
		}
		if seen[row[1]] {
			t.Fatalf("row %v duplicated", row)
		}
		seen[row[1]] = true
	}
	if len(got) != 2*perFeeder {
		t.Fatalf("got %d rows, want %d", len(got), 2*perFeeder)
	}
}

// failingReader yields the first n bytes of r, then err.
type failingReader struct {
	r   io.Reader
	n   int
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, f.err
	}
	n, err := f.r.Read(p[:min(len(p), f.n)])
	f.n -= n
	return n, err
}

// TestFileRunReadErrors: a spilled run that cannot be read to its last byte
// is an error carrying the cause and the file offset — never a silent end
// of the run, not even when the failure lands on a row boundary.
func TestFileRunReadErrors(t *testing.T) {
	const width, rows, off = 3, 10, 4096
	var data []byte
	for i := 0; i < rows*width; i++ {
		data = binary.LittleEndian.AppendUint32(data, uint32(i))
	}
	span := runSpan{off: off, length: int64(len(data))}
	whole := collectRows(t, newFileRun(bytes.NewReader(data), width, span))
	if len(whole) != rows || whole[rows-1][width-1] != rows*width-1 {
		t.Fatalf("intact run read back as %v", whole)
	}
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		after   int
		cause   error // what the reader fails with
		wantErr error
	}{
		{"io error on a row boundary", 2 * width * 4, errBoom, errBoom},
		{"io error inside a row", 2*width*4 + 5, errBoom, errBoom},
		{"truncated on a row boundary", 2 * width * 4, io.EOF, io.ErrUnexpectedEOF},
		{"truncated inside a row", 2*width*4 + 5, io.EOF, io.ErrUnexpectedEOF},
		{"empty", 0, io.EOF, io.ErrUnexpectedEOF},
	} {
		run := newFileRun(&failingReader{r: bytes.NewReader(data), n: tc.after, err: tc.cause}, width, span)
		var err error
		for ok := true; ok && err == nil; {
			_, ok, err = run.Next()
		}
		if !errors.Is(err, tc.wantErr) || !strings.Contains(fmt.Sprint(err), fmt.Sprintf("offset %d", off+tc.after)) {
			t.Errorf("%s: err = %v, want one wrapping %v at offset %d", tc.name, err, tc.wantErr, off+tc.after)
		}
	}
}

// TestRelationCloseReportsCleanupFailure: the iterator's Close returns what
// closing and removing the spill file failed at (runStage passes it on to
// Run's caller) instead of dropping it.
func TestRelationCloseReportsCleanupFailure(t *testing.T) {
	for _, limit := range []int{4, 100} { // merged runs; a run plus nothing in memory is still a merge
		r := NewRelation(1, []int{0}, limit, nil)
		for i := 0; i < 100; i++ {
			if err := r.Add([]graph.VertexID{graph.VertexID(i)}); err != nil {
				t.Fatal(err)
			}
		}
		it, err := r.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(r.file.Name()); err != nil { // someone else cleaned /tmp
			t.Fatal(err)
		}
		if err := it.Close(); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("limit %d: Close = %v, want the failed removal", limit, err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("limit %d: second Close = %v, want nil", limit, err)
		}
	}
}
