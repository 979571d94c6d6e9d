package plan

// Statistics persistence for the store layer (internal/store). Recovery
// must restore GraphStats whose Fingerprint is byte-equal to the live
// system's — a recovered plan cache keyed on a different stats token would
// silently never hit — so floats round-trip through math.Float64bits
// verbatim, nil and empty label views are distinguished (nil-ness changes
// what LabelShare and the edge-label selectivities read), and map content
// is written in sorted key order so the encoding itself is deterministic.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// statsEncVersion pins the EncodeStats wire layout. Bump it (and teach
// DecodeStats the old layout) when the GraphStats shape changes.
const statsEncVersion = 1

// EncodeStats serialises s deterministically: equal stats always yield
// equal bytes, and DecodeStats(EncodeStats(s)) reproduces s with a
// byte-identical Fingerprint.
func EncodeStats(s GraphStats) []byte {
	n := 4 + 8*4 + 4 + 8*len(s.Moments) + 1 + 1
	if s.LabelCounts != nil {
		n += 4 + 8*len(s.LabelCounts)
	}
	if s.EdgeTriples != nil {
		n += 4 + 16*len(s.EdgeTriples)
	}
	buf := make([]byte, 0, n)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	u32(statsEncVersion)
	u64(uint64(s.N))
	u64(s.M)
	u64(uint64(s.MaxDeg))
	u64(s.Epoch)
	u32(uint32(len(s.Moments)))
	for _, m := range s.Moments {
		f64(m)
	}
	if s.LabelCounts == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		u32(uint32(len(s.LabelCounts)))
		for _, c := range s.LabelCounts {
			f64(c)
		}
	}
	if s.EdgeTriples == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		u32(uint32(len(s.EdgeTriples)))
		keys := make([]uint64, 0, len(s.EdgeTriples))
		for k := range s.EdgeTriples {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			u64(k)
			f64(s.EdgeTriples[k])
		}
	}
	return buf
}

// DecodeStats parses an EncodeStats payload.
func DecodeStats(b []byte) (GraphStats, error) {
	var s GraphStats
	pos := 0
	fail := func(what string) (GraphStats, error) {
		return GraphStats{}, fmt.Errorf("plan: stats decode: truncated %s at offset %d", what, pos)
	}
	u32 := func() (uint32, bool) {
		if pos+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[pos:])
		pos += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if pos+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[pos:])
		pos += 8
		return v, true
	}
	u8 := func() (byte, bool) {
		if pos >= len(b) {
			return 0, false
		}
		v := b[pos]
		pos++
		return v, true
	}

	ver, ok := u32()
	if !ok {
		return fail("version")
	}
	if ver != statsEncVersion {
		return GraphStats{}, fmt.Errorf("plan: stats decode: unsupported version %d (have %d)", ver, statsEncVersion)
	}
	nv, ok1 := u64()
	m, ok2 := u64()
	md, ok3 := u64()
	ep, ok4 := u64()
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fail("header")
	}
	s.N, s.M, s.MaxDeg, s.Epoch = int(nv), m, int(md), ep
	nm, ok := u32()
	if !ok || uint64(nm) > uint64(len(b)) {
		return fail("moment count")
	}
	s.Moments = make([]float64, nm)
	for i := range s.Moments {
		bits, ok := u64()
		if !ok {
			return fail("moments")
		}
		s.Moments[i] = math.Float64frombits(bits)
	}
	hasLC, ok := u8()
	if !ok {
		return fail("label-count flag")
	}
	if hasLC != 0 {
		nl, ok := u32()
		if !ok || uint64(nl) > uint64(len(b)) {
			return fail("label count")
		}
		s.LabelCounts = make([]float64, nl)
		for i := range s.LabelCounts {
			bits, ok := u64()
			if !ok {
				return fail("label counts")
			}
			s.LabelCounts[i] = math.Float64frombits(bits)
		}
	}
	hasET, ok := u8()
	if !ok {
		return fail("edge-triple flag")
	}
	if hasET != 0 {
		nt, ok := u32()
		if !ok || uint64(nt) > uint64(len(b)) {
			return fail("triple count")
		}
		s.EdgeTriples = make(map[uint64]float64, nt)
		for i := uint32(0); i < nt; i++ {
			k, ok1 := u64()
			vbits, ok2 := u64()
			if !ok1 || !ok2 {
				return fail("edge triples")
			}
			s.EdgeTriples[k] = math.Float64frombits(vbits)
		}
	}
	if pos != len(b) {
		return GraphStats{}, fmt.Errorf("plan: stats decode: %d trailing bytes", len(b)-pos)
	}
	return s, nil
}
