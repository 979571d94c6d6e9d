// Package store is the persistent layer under the serving API: versioned
// CSR snapshots on disk, a CRC-framed write-ahead epoch log of graph.Delta
// batches, and crash-safe recovery that reconstructs the latest durable
// snapshot — graph, statistics, and the plan-cache worth re-warming —
// without re-reading the original edge list. Because every applied delta
// is logged and compaction only adds snapshots, any logged historical
// epoch can also be materialised for time-travel queries
// (huge.System.AsOf).
//
// On-disk layout of a store directory:
//
//	snap-<epoch>.snap   CSR snapshot at <epoch> (format below)
//	wal-<epoch>.wal     delta log following the snapshot at <epoch>;
//	                    records carry epochs <epoch>+1, <epoch>+2, ...
//
// A snapshot file is a 4 KiB header page followed by page-aligned
// sections (offsets, adjacency, vertex labels, edge labels, encoded
// GraphStats, plan specs), each with a CRC-32C in the header's section
// table. A snapshot is loaded with one read, and every section's checksum
// and the CSR's content are verified before any of it is used (ErrCorrupt
// otherwise). The large sections are then reinterpreted in place as
// []uint64 / []VertexID: the read buffer becomes the graph's arrays with
// no second copy. All integers are little-endian; on a big-endian host the
// loader falls back to a byte-swapping copy.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/plan"
)

// Magic and Version identify the snapshot format. Changing Version (or the
// layout without bumping it) requires a migration note — see
// TestFormatVersionPinned.
const (
	Magic   = "HUGESNAP"
	Version = 1
)

const (
	pageSize   = 4096
	headerSize = pageSize // header occupies the whole first page

	flagVLabels = 1 << 0
	flagELabels = 1 << 1

	// Section indices in the header's section table.
	secOffsets = 0
	secAdj     = 1
	secVLabels = 2
	secELabels = 3
	secStats   = 4
	secPlans   = 5
	numSecs    = 6

	secEntrySize = 24                                 // offset u64, length u64, crc u32, pad u32
	secTableOff  = 56                                 // after magic/version/flags/counters
	hdrCRCOff    = secTableOff + numSecs*secEntrySize // CRC over header[0:hdrCRCOff]
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the native byte order matches the file
// format; when it does, section bytes reinterpret as typed slices with no
// copy.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// SnapshotData is everything one snapshot persists: the compact CSR
// content, the statistics the optimiser keyed its plans on, and the specs
// of the plans worth re-optimising after recovery.
type SnapshotData struct {
	CSR   graph.CSRData
	Stats plan.GraphStats
	Plans []PlanSpec
}

// PlanSpec records one cached plan's identity — enough to rebuild the
// query and re-run the optimiser after recovery, which is cheap relative
// to re-ingest and keeps the cache sound (the plan itself depends on stats
// and configuration, so only the inputs are persisted, never the plan).
type PlanSpec struct {
	Family  string
	Name    string
	NumV    int
	Edges   [][2]int
	VLabels []int // per-vertex label constraints (query.AnyLabel entries); nil if none
	ELabels []int // per-edge label constraints parallel to Edges; nil if none
}

type sectionMeta struct {
	off, length uint64
	crc         uint32
}

type snapHeader struct {
	flags      uint32
	numV       uint64
	numE       uint64
	maxDeg     uint64
	epoch      uint64
	numELabels uint32
	secs       [numSecs]sectionMeta
}

func (h *snapHeader) encode() []byte {
	b := make([]byte, headerSize)
	copy(b, Magic)
	binary.LittleEndian.PutUint32(b[8:], Version)
	binary.LittleEndian.PutUint32(b[12:], h.flags)
	binary.LittleEndian.PutUint64(b[16:], h.numV)
	binary.LittleEndian.PutUint64(b[24:], h.numE)
	binary.LittleEndian.PutUint64(b[32:], h.maxDeg)
	binary.LittleEndian.PutUint64(b[40:], h.epoch)
	binary.LittleEndian.PutUint32(b[48:], h.numELabels)
	binary.LittleEndian.PutUint32(b[52:], numSecs)
	for i, s := range h.secs {
		p := secTableOff + i*secEntrySize
		binary.LittleEndian.PutUint64(b[p:], s.off)
		binary.LittleEndian.PutUint64(b[p+8:], s.length)
		binary.LittleEndian.PutUint32(b[p+16:], s.crc)
	}
	binary.LittleEndian.PutUint32(b[hdrCRCOff:], crc32.Checksum(b[:hdrCRCOff], castagnoli))
	return b
}

func decodeHeader(b []byte) (snapHeader, error) {
	var h snapHeader
	if len(b) < headerSize {
		return h, fmt.Errorf("store: snapshot shorter than header (%d bytes)", len(b))
	}
	if string(b[:8]) != Magic {
		return h, fmt.Errorf("store: bad snapshot magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return h, fmt.Errorf("store: snapshot format version %d, this build reads %d", v, Version)
	}
	if got, want := crc32.Checksum(b[:hdrCRCOff], castagnoli), binary.LittleEndian.Uint32(b[hdrCRCOff:]); got != want {
		return h, fmt.Errorf("store: snapshot header checksum mismatch (%08x != %08x)", got, want)
	}
	h.flags = binary.LittleEndian.Uint32(b[12:])
	h.numV = binary.LittleEndian.Uint64(b[16:])
	h.numE = binary.LittleEndian.Uint64(b[24:])
	h.maxDeg = binary.LittleEndian.Uint64(b[32:])
	h.epoch = binary.LittleEndian.Uint64(b[40:])
	h.numELabels = binary.LittleEndian.Uint32(b[48:])
	if n := binary.LittleEndian.Uint32(b[52:]); n != numSecs {
		return h, fmt.Errorf("store: snapshot has %d sections, want %d", n, numSecs)
	}
	for i := range h.secs {
		p := secTableOff + i*secEntrySize
		h.secs[i] = sectionMeta{
			off:    binary.LittleEndian.Uint64(b[p:]),
			length: binary.LittleEndian.Uint64(b[p+8:]),
			crc:    binary.LittleEndian.Uint32(b[p+16:]),
		}
	}
	return h, nil
}

func pageAlign(off uint64) uint64 {
	return (off + pageSize - 1) &^ uint64(pageSize-1)
}

// --- typed-slice <-> byte views -------------------------------------------
//
// The large sections are flat arrays of fixed-width little-endian
// integers. On a little-endian host a section's bytes ARE the slice — the
// views below reinterpret without copying (writers borrow the graph's
// arrays; readers hand the read buffer straight to graph.FromCSR). The
// byte-swapping fallbacks keep big-endian hosts correct.

func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	b := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func vidBytes(s []graph.VertexID) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	b := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

func lidBytes(s []graph.LabelID) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*2)
	}
	b := make([]byte, len(s)*2)
	for i, v := range s {
		binary.LittleEndian.PutUint16(b[i*2:], uint16(v))
	}
	return b
}

// aligned reports whether p is aligned for a width-byte element type.
func aligned(b []byte, width int) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%uintptr(width) == 0
}

// bytesToU64 views (or, on a big-endian host or a misaligned b, copies) b
// as a []uint64 of n elements. The view aliases b, so b must not be reused.
func bytesToU64(b []byte, n int) []uint64 {
	if n == 0 {
		return []uint64{}
	}
	if hostLittleEndian && aligned(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func bytesToVID(b []byte, n int) []graph.VertexID {
	if n == 0 {
		return []graph.VertexID{}
	}
	if hostLittleEndian && aligned(b, 4) {
		return unsafe.Slice((*graph.VertexID)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]graph.VertexID, n)
	for i := range out {
		out[i] = graph.VertexID(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func bytesToLID(b []byte, n int) []graph.LabelID {
	if n == 0 {
		return []graph.LabelID{}
	}
	if hostLittleEndian && aligned(b, 2) {
		return unsafe.Slice((*graph.LabelID)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]graph.LabelID, n)
	for i := range out {
		out[i] = graph.LabelID(binary.LittleEndian.Uint16(b[i*2:]))
	}
	return out
}

// --- plan-spec section ----------------------------------------------------

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func encodePlanSpecs(specs []PlanSpec) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(specs)))
	for _, p := range specs {
		b = appendStr(b, p.Family)
		b = appendStr(b, p.Name)
		b = binary.LittleEndian.AppendUint32(b, uint32(p.NumV))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Edges)))
		for _, e := range p.Edges {
			b = binary.LittleEndian.AppendUint32(b, uint32(e[0]))
			b = binary.LittleEndian.AppendUint32(b, uint32(e[1]))
		}
		b = appendIntSlice(b, p.VLabels)
		b = appendIntSlice(b, p.ELabels)
	}
	return b
}

// appendIntSlice frames a possibly-nil []int (label constraints hold small
// values incl. query.AnyLabel = -1, so int32 round-trips exactly).
func appendIntSlice(b []byte, s []int) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	for _, v := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(v)))
	}
	return b
}

type byteReader struct {
	b   []byte
	pos int
	err error
}

func (r *byteReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("store: plan specs: truncated %s at offset %d", what, r.pos)
	}
}

func (r *byteReader) u8(what string) byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *byteReader) u32(what string) uint32 {
	if r.err != nil || r.pos+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *byteReader) str(what string) string {
	n := int(r.u32(what))
	if r.err != nil || r.pos+n > len(r.b) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *byteReader) intSlice(what string) []int {
	if r.u8(what) == 0 || r.err != nil {
		return nil
	}
	n := int(r.u32(what))
	if r.err != nil || n > len(r.b)-r.pos {
		r.fail(what)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(r.u32(what)))
	}
	return out
}

func decodePlanSpecs(b []byte) ([]PlanSpec, error) {
	r := &byteReader{b: b}
	n := int(r.u32("count"))
	if n > len(b) { // cheap bound before allocating
		return nil, fmt.Errorf("store: plan specs: implausible count %d", n)
	}
	specs := make([]PlanSpec, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var p PlanSpec
		p.Family = r.str("family")
		p.Name = r.str("name")
		p.NumV = int(r.u32("numV"))
		ne := int(r.u32("edge count"))
		if r.err == nil && ne > (len(b)-r.pos)/8 {
			r.fail("edges")
			break
		}
		p.Edges = make([][2]int, ne)
		for j := range p.Edges {
			p.Edges[j][0] = int(r.u32("edge"))
			p.Edges[j][1] = int(r.u32("edge"))
		}
		p.VLabels = r.intSlice("vertex labels")
		p.ELabels = r.intSlice("edge labels")
		specs = append(specs, p)
	}
	if r.err != nil {
		return nil, r.err
	}
	return specs, nil
}
