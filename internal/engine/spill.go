package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// Relation is the buffered input of one side of a PUSH-JOIN on one machine
// (Section 4.3). The router hands it whole slabs of rows (AddRows); they
// live row-major in fixed-size chunks, so the buffer grows without ever
// copying what it already holds. Once limitRows rows are buffered they are
// ordered by (join key, whole row) with one LSD radix sort over
// (key, row index) pairs and written to a temporary file as a sorted run —
// in index order, a block at a time, without a sorted copy — and the chunks
// are reused for the next run. Finalize orders the remainder the same way
// and returns an iterator that merges all runs, so the join reads the data
// back in key order with constant memory.
type Relation struct {
	mu        sync.Mutex
	width     int
	keySlots  []int
	sortSlots []int              // keySlots, then every other slot: the (key, row) order
	chunks    [][]graph.VertexID // row-major; row i is in chunks[i>>chunkShift]
	rows      int                // rows buffered in chunks
	limitRows int                // spill threshold; <= 0 means never spill
	file      *os.File           // all sorted runs, appended back to back
	runs      []runSpan
	onSpill   func(rows int)   // memory-accounting hook
	metrics   *metrics.Metrics // spill counters of the run; nil outside one
}

const (
	chunkShift = 12 // 4096 rows per chunk
	chunkMask  = 1<<chunkShift - 1
	// spillBlockBytes is the unit a run is written and read back in.
	spillBlockBytes = 1 << 16
)

// runSpan is one sorted run inside the shared spill file.
type runSpan struct{ off, length int64 }

// NewRelation creates a buffered relation. limitRows is the in-memory
// buffer threshold in rows (the paper's constant buffer size).
func NewRelation(width int, keySlots []int, limitRows int, onSpill func(rows int)) *Relation {
	r := &Relation{width: width, keySlots: keySlots, limitRows: limitRows, onSpill: onSpill}
	isKey := make([]bool, width)
	for _, k := range keySlots {
		isKey[k] = true
		r.sortSlots = append(r.sortSlots, k)
	}
	for s := 0; s < width; s++ {
		if !isKey[s] {
			r.sortSlots = append(r.sortSlots, s)
		}
	}
	return r
}

// Add appends one row. Safe for concurrent callers.
func (r *Relation) Add(row []graph.VertexID) error { return r.AddRows(row) }

// AddRows appends len(rows)/width rows, stored row-major, under one lock,
// spilling a sorted run each time the buffer reaches limitRows — the same
// runs row-at-a-time Adds would produce. Safe for concurrent callers (the
// router's feeders).
func (r *Relation) AddRows(rows []graph.VertexID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(rows) > 0 {
		ci, off := r.rows>>chunkShift, (r.rows&chunkMask)*r.width
		if ci == len(r.chunks) {
			chunk := 1 << chunkShift
			if r.limitRows > 0 && r.limitRows < chunk {
				chunk = r.limitRows
			}
			r.chunks = append(r.chunks, make([]graph.VertexID, chunk*r.width))
		}
		take := len(rows)
		if r.limitRows > 0 {
			take = min(take, (r.limitRows-r.rows)*r.width)
		}
		n := copy(r.chunks[ci][off:], rows[:take])
		rows = rows[n:]
		r.rows += n / r.width
		if r.limitRows > 0 && r.rows >= r.limitRows {
			if err := r.spillLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows returns the number of buffered in-memory rows.
func (r *Relation) Rows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows
}

// row returns buffered row i, aliasing the chunk storage.
func (r *Relation) row(i uint32) []graph.VertexID {
	off := int(i&chunkMask) * r.width
	return r.chunks[i>>chunkShift][off : off+r.width : off+r.width]
}

func (r *Relation) compare(a, b []graph.VertexID) int {
	for _, s := range r.sortSlots {
		if a[s] != b[s] {
			if a[s] < b[s] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortScratch is the working memory of one run sort: the (key, row index)
// pairs and their radix double-buffer, plus the block a run is encoded
// into. It is 24 bytes per buffered row, so it is pooled across relations
// and handed back as soon as the order (or the written run) exists rather
// than kept per Relation.
type sortScratch struct {
	keys, keys2 []uint64
	idx, idx2   []uint32
	block       []byte
}

var sortPool = sync.Pool{New: func() any { return new(sortScratch) }}

// sortRows orders the buffered rows by (key slots, whole row) and returns
// the permutation, which aliases sc. The order is lexicographic over
// sortSlots, so it is built least-significant first: each round packs up to
// two slots of every row into a uint64 and stable-sorts the (key, index)
// pairs on the bytes of it that vary, one counting pass per byte.
func (r *Relation) sortRows(sc *sortScratch) []uint32 {
	n := r.rows
	if cap(sc.idx) < n {
		sc.keys, sc.keys2 = make([]uint64, n), make([]uint64, n)
		sc.idx, sc.idx2 = make([]uint32, n), make([]uint32, n)
	}
	keys, keys2, idx, idx2 := sc.keys[:n], sc.keys2[:n], sc.idx[:n], sc.idx2[:n]
	for i := range idx {
		idx[i] = uint32(i)
	}
	if n < 2 {
		return idx
	}
	for hi := len(r.sortSlots); hi > 0; hi -= 2 {
		var varying uint64
		if hi == 1 {
			a := r.sortSlots[0]
			for i, x := range idx {
				keys[i] = uint64(r.row(x)[a])
				varying |= keys[i] ^ keys[0]
			}
		} else {
			a, b := r.sortSlots[hi-2], r.sortSlots[hi-1]
			for i, x := range idx {
				row := r.row(x)
				keys[i] = uint64(row[a])<<32 | uint64(row[b])
				varying |= keys[i] ^ keys[0]
			}
		}
		for shift := 0; shift < 64; shift += 8 {
			if varying>>shift&0xff == 0 {
				continue
			}
			var next [256]uint32
			for _, k := range keys {
				next[byte(k>>shift)]++
			}
			sum := uint32(0)
			for d, c := range next {
				next[d], sum = sum, sum+c
			}
			for i, k := range keys {
				d := byte(k >> shift)
				keys2[next[d]], idx2[next[d]] = k, idx[i]
				next[d]++
			}
			keys, keys2, idx, idx2 = keys2, keys, idx2, idx
		}
	}
	return idx
}

// spillLocked sorts the buffer and appends it to the spill file as one run.
func (r *Relation) spillLocked() error {
	if r.rows == 0 {
		return nil
	}
	if r.file == nil {
		f, err := os.CreateTemp("", "huge-join-spill-*")
		if err != nil {
			return fmt.Errorf("engine: creating spill file: %w", err)
		}
		r.file = f
	}
	off, err := r.file.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("engine: seeking spill file: %w", err)
	}
	sc := sortPool.Get().(*sortScratch)
	defer sortPool.Put(sc)
	if sc.block == nil {
		sc.block = make([]byte, 0, spillBlockBytes)
	}
	block := sc.block[:0]
	for _, i := range r.sortRows(sc) {
		for _, x := range r.row(i) {
			block = binary.LittleEndian.AppendUint32(block, x)
		}
		if len(block)+4*r.width > cap(block) {
			if _, err := r.file.Write(block); err != nil {
				return fmt.Errorf("engine: writing spill run: %w", err)
			}
			block = block[:0]
		}
	}
	if _, err := r.file.Write(block); err != nil {
		return fmt.Errorf("engine: writing spill run: %w", err)
	}
	length := int64(r.rows) * int64(r.width) * 4
	r.runs = append(r.runs, runSpan{off: off, length: length})
	if r.metrics != nil {
		r.metrics.JoinSpillRuns.Add(1)
		r.metrics.JoinSpillBytes.Add(uint64(length))
	}
	if r.onSpill != nil {
		r.onSpill(r.rows)
	}
	r.rows = 0
	return nil
}

// RowIter streams rows in (key, row) order.
type RowIter interface {
	// Next returns the next row (aliasing internal storage, valid until the
	// following call) or ok=false at the end.
	Next() (row []graph.VertexID, ok bool, err error)
	// Close releases the relation's buffer and removes its spill file; a
	// failure to close or remove the file is returned.
	Close() error
}

// Finalize sorts any remaining buffer and returns a merged iterator over
// all runs. The Relation must not be Added to afterwards.
func (r *Relation) Finalize() (RowIter, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc := sortPool.Get().(*sortScratch)
	mem := &memRun{rel: r, order: append([]uint32(nil), r.sortRows(sc)...)}
	sortPool.Put(sc)
	if len(r.runs) == 0 {
		return mem, nil
	}
	m := &mergeIter{rel: r}
	for _, span := range r.runs {
		src := newFileRun(io.NewSectionReader(r.file, span.off, span.length), r.width, span)
		if err := m.push(src); err != nil {
			return nil, err
		}
	}
	if err := m.push(mem); err != nil {
		return nil, err
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// Discard releases a relation that will never be consumed — a cancelled
// run can exit between the feeder stage and the joining stage, leaving
// buffered rows and spill files behind. Rows still buffered in memory
// leave the accounting through the relation's own onSpill hook (the one
// place that owns "rows released" semantics); then the buffer is dropped
// and any spill file removed. It is a no-op after the relation's iterator
// was closed. Callers must have quiesced all feeders first.
//
// Discard has no error to return on purpose: it runs deferred on every
// exit path of Run, after the run's outcome is decided, and a relation that
// was consumed already reported its clean-up failure through the
// iterator's Close. What it could fail at is removing a temporary file of
// a run that is being abandoned anyway.
func (r *Relation) Discard() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.onSpill != nil && r.rows > 0 {
		r.onSpill(r.rows)
	}
	_ = r.cleanup()
}

// cleanup drops the buffer and removes the spill file, reporting what
// closing and removing it failed at.
func (r *Relation) cleanup() error {
	var err error
	if r.file != nil {
		name := r.file.Name()
		err = errors.Join(r.file.Close(), os.Remove(name))
		r.file = nil
	}
	r.runs = nil
	r.chunks = nil
	r.rows = 0
	return err
}

// rowSource is one sorted run (file or memory) feeding the merge.
type rowSource interface {
	Next() ([]graph.VertexID, bool, error)
}

// memRun iterates the sorted in-memory buffer in index order; it is the
// whole iterator of a relation that never spilled.
type memRun struct {
	rel   *Relation
	order []uint32
	pos   int
}

func (m *memRun) Next() ([]graph.VertexID, bool, error) {
	if m.pos == len(m.order) {
		return nil, false, nil
	}
	row := m.rel.row(m.order[m.pos])
	m.pos++
	return row, true, nil
}

func (m *memRun) Close() error { return m.rel.cleanup() }

// fileRun reads one spilled run back a block at a time; rows alias the
// decoded block.
type fileRun struct {
	src       io.Reader
	off       int64 // spill-file offset of the next unread byte
	remaining int64 // bytes of the run not read yet
	width     int
	buf       []byte
	vals      []graph.VertexID
	pos       int
}

func newFileRun(src io.Reader, width int, span runSpan) *fileRun {
	block := max(spillBlockBytes/(4*width), 1) * 4 * width
	return &fileRun{src: src, off: span.off, remaining: span.length, width: width,
		buf: make([]byte, min(int64(block), span.length))}
}

func (f *fileRun) Next() ([]graph.VertexID, bool, error) {
	if f.pos == len(f.vals) {
		if f.remaining == 0 {
			return nil, false, nil
		}
		// The run's length is known, so nothing but its last byte ends it:
		// a reader that runs dry or fails before that — even on a row
		// boundary — would silently shorten the join's input.
		buf := f.buf[:min(int64(len(f.buf)), f.remaining)]
		n, err := io.ReadFull(f.src, buf)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, false, fmt.Errorf("engine: reading spill run at offset %d: %w", f.off+int64(n), err)
		}
		f.off += int64(n)
		f.remaining -= int64(n)
		f.vals = f.vals[:0]
		for ; len(buf) > 0; buf = buf[4:] {
			f.vals = append(f.vals, binary.LittleEndian.Uint32(buf))
		}
		f.pos = 0
	}
	row := f.vals[f.pos : f.pos+f.width]
	f.pos += f.width
	return row, true, nil
}

// mergeIter is a k-way merge over sorted runs: a binary min-heap of the
// runs' current rows, read in place.
type mergeIter struct {
	rel     *Relation
	heads   []mergeHead
	started bool // heads[0].row went out: step its run before the next row
}

type mergeHead struct {
	row []graph.VertexID // the run's current row, aliasing its storage
	src rowSource
}

// push adds a run at its first row; the caller heapifies afterwards.
func (it *mergeIter) push(src rowSource) error {
	row, ok, err := src.Next()
	if ok {
		it.heads = append(it.heads, mergeHead{row: row, src: src})
	}
	return err
}

func (it *mergeIter) siftDown(i int) {
	h := it.heads
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && it.rel.compare(h[c+1].row, h[c].row) < 0 {
			c++
		}
		if it.rel.compare(h[i].row, h[c].row) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (it *mergeIter) Next() ([]graph.VertexID, bool, error) {
	if it.started && len(it.heads) > 0 {
		row, ok, err := it.heads[0].src.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			it.heads[0].row = row
		} else {
			last := len(it.heads) - 1
			it.heads[0] = it.heads[last]
			it.heads = it.heads[:last]
		}
		it.siftDown(0)
	}
	if len(it.heads) == 0 {
		return nil, false, nil
	}
	it.started = true
	return it.heads[0].row, true, nil
}

func (it *mergeIter) Close() error { return it.rel.cleanup() }
