package dataflow

import (
	"sync"

	"repro/internal/graph"
)

// Batch is the minimum data-processing unit (Section 4.2): a fixed-width
// block of partial matches stored row-major in one flat slice, matching the
// paper's "compact array" representation that underlies the memory bound of
// Lemma 5.2.
type Batch struct {
	Width int
	Data  []graph.VertexID
}

// Rows returns the number of tuples in the batch.
func (b *Batch) Rows() int {
	if b.Width == 0 {
		return 0
	}
	return len(b.Data) / b.Width
}

// Row returns the i-th tuple; the slice aliases the batch storage.
func (b *Batch) Row(i int) []graph.VertexID {
	return b.Data[i*b.Width : (i+1)*b.Width]
}

// Append copies a tuple into the batch.
func (b *Batch) Append(row []graph.VertexID) {
	b.Data = append(b.Data, row...)
}

// SplitRows divides the batch into n contiguous chunks of near-equal row
// count (some may be empty), for parallel processing by workers.
func (b *Batch) SplitRows(n int) []*Batch {
	rows := b.Rows()
	out := make([]*Batch, 0, n)
	per := (rows + n - 1) / n
	if per == 0 {
		per = 1
	}
	for start := 0; start < rows; start += per {
		end := start + per
		if end > rows {
			end = rows
		}
		out = append(out, &Batch{Width: b.Width, Data: b.Data[start*b.Width : end*b.Width]})
	}
	return out
}

// SplitRuns is SplitRows for a batch whose rows come in runs sharing their
// first slot, as a scan emits each vertex's edges together: no cut
// separates a run, so a chunk may exceed its share by up to one run.
func (b *Batch) SplitRuns(n int) []*Batch {
	rows := b.Rows()
	out := make([]*Batch, 0, n)
	per := max((rows+n-1)/n, 1)
	for start := 0; start < rows; {
		end := min(start+per, rows)
		for end < rows && b.Data[end*b.Width] == b.Data[(end-1)*b.Width] {
			end++
		}
		out = append(out, &Batch{Width: b.Width, Data: b.Data[start*b.Width : end*b.Width]})
		start = end
	}
	return out
}

// batchPool recycles Batch headers and their backing arrays between runs:
// every batch the engine processes passes through exactly one retirement
// point, so back-to-back delta maintenance (one run per query edge per
// Apply, forever) reuses warm buffers instead of re-allocating its entire
// batch traffic each epoch.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// maxPooledCap bounds the backing arrays the pool retains: one oversized
// hub expansion must not pin megabytes until the next GC.
const maxPooledCap = 1 << 20

// GetBatch returns an empty batch with capacity for capRows rows of the
// given width, reusing pooled storage when it fits. Callers that retire
// batches through Recycle get allocation-free steady-state batching.
func GetBatch(width, capRows int) *Batch {
	b := batchPool.Get().(*Batch)
	need := width * capRows
	if cap(b.Data) < need {
		b.Data = make([]graph.VertexID, 0, need)
	}
	b.Width = width
	b.Data = b.Data[:0]
	return b
}

// Recycle returns a batch to the pool. The caller must hold the only live
// reference: sub-batches created by SplitRows alias the parent's storage,
// so a parent may only be recycled after its splits are fully processed
// (and the splits themselves must never be recycled).
func (b *Batch) Recycle() {
	if b == nil || cap(b.Data) > maxPooledCap {
		return
	}
	b.Data = b.Data[:0]
	batchPool.Put(b)
}
