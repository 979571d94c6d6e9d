package store

// Snapshot file I/O: atomic page-aligned writes, and reads that verify
// every byte before use.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/plan"
)

// writeSnapshotFile persists data at path atomically: the bytes land in a
// temp file in the same directory, are fsynced, and are renamed into
// place, followed by a directory fsync — a crash mid-write leaves either
// the old state or the new file, never a half-written snapshot under the
// live name.
func writeSnapshotFile(path string, data SnapshotData) (err error) {
	d := data.CSR
	var h snapHeader
	h.numV = uint64(d.NumV)
	h.numE = d.NumE
	h.maxDeg = uint64(d.MaxDeg)
	h.epoch = d.Epoch
	h.numELabels = uint32(d.NumELabels)

	sections := make([][]byte, numSecs)
	sections[secOffsets] = u64Bytes(d.Offsets)
	sections[secAdj] = vidBytes(d.Adj)
	if d.Labels != nil {
		h.flags |= flagVLabels
		sections[secVLabels] = lidBytes(d.Labels)
	}
	if d.ELabels != nil {
		h.flags |= flagELabels
		sections[secELabels] = lidBytes(d.ELabels)
	}
	sections[secStats] = plan.EncodeStats(data.Stats)
	sections[secPlans] = encodePlanSpecs(data.Plans)

	off := uint64(headerSize)
	for i, sec := range sections {
		h.secs[i] = sectionMeta{off: off, length: uint64(len(sec)), crc: crc32.Checksum(sec, castagnoli)}
		off = pageAlign(off + uint64(len(sec)))
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(h.encode()); err != nil {
		return err
	}
	pad := make([]byte, pageSize)
	pos := uint64(headerSize)
	for i, sec := range sections {
		if h.secs[i].off > pos {
			if _, err = tmp.Write(pad[:h.secs[i].off-pos]); err != nil {
				return err
			}
			pos = h.secs[i].off
		}
		if _, err = tmp.Write(sec); err != nil {
			return err
		}
		pos += uint64(len(sec))
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some platforms/filesystems refuse fsync on directories; atomicity
	// still holds via the rename, so that refusal is not fatal.
	if err := df.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		df.Close()
		return err
	}
	return df.Close()
}

// ErrCorrupt marks a snapshot whose bytes fail verification: a checksum
// mismatch, a malformed header or section, or CSR content that
// graph.FromCSR rejects. Open and MaterializeAt fall back to an older
// snapshot on it, as on any load error.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// loadSnapshot loads the snapshot of epoch in dir with one read and
// verifies every byte before anything uses it. The recovered graph's
// arrays alias the read buffer, which it owns from then on.
func loadSnapshot(dir string, epoch uint64) (Recovered, error) {
	path := snapPath(dir, epoch)
	b, err := os.ReadFile(path)
	if err != nil {
		return Recovered{}, err
	}
	rec, err := decodeSnapshot(b)
	if err == nil && rec.Epoch != epoch {
		err = fmt.Errorf("store: snapshot holds epoch %d", rec.Epoch)
	}
	if err != nil {
		return Recovered{}, fmt.Errorf("%s: %w: %w", filepath.Base(path), ErrCorrupt, err)
	}
	return rec, nil
}

// decodeSnapshot checks a whole snapshot file's bytes — the header, every
// section's checksum, the sections' decoding, and the CSR content — and
// returns the state they hold at the snapshot's epoch.
func decodeSnapshot(b []byte) (Recovered, error) {
	h, err := decodeHeader(b)
	if err != nil {
		return Recovered{}, err
	}
	secs, err := sectionSlices(b, h)
	if err != nil {
		return Recovered{}, err
	}
	data, err := assemble(h, secs)
	if err != nil {
		return Recovered{}, err
	}
	g, err := graph.FromCSR(data.CSR)
	if err != nil {
		return Recovered{}, err
	}
	return Recovered{Graph: g, Stats: data.Stats, Plans: data.Plans, Epoch: h.epoch}, nil
}

// sectionSlices bounds-checks every section against the file, verifies its
// checksum, and returns the byte views.
func sectionSlices(b []byte, h snapHeader) ([numSecs][]byte, error) {
	var out [numSecs][]byte
	// Every vertex costs 8 offset bytes and every edge 8 adjacency bytes, so
	// counts past the file's size are corrupt — and would overflow below.
	if h.numV >= uint64(len(b)) || h.numE >= uint64(len(b)) {
		return out, fmt.Errorf("store: %d vertices, %d edges in a %d-byte file", h.numV, h.numE, len(b))
	}
	want := [numSecs]uint64{
		secOffsets: (h.numV + 1) * 8,
		secAdj:     2 * h.numE * 4,
	}
	if h.flags&flagVLabels != 0 {
		want[secVLabels] = h.numV * 2
	}
	if h.flags&flagELabels != 0 {
		want[secELabels] = 2 * h.numE * 2
	}
	for i, s := range h.secs {
		if s.off > uint64(len(b)) || s.length > uint64(len(b))-s.off {
			return out, fmt.Errorf("store: section %d out of bounds (off %d len %d, file %d)", i, s.off, s.length, len(b))
		}
		switch i {
		case secStats, secPlans:
			// variable length
		default:
			if s.length != want[i] {
				return out, fmt.Errorf("store: section %d length %d, header implies %d", i, s.length, want[i])
			}
		}
		sec := b[s.off : s.off+s.length]
		if crc32.Checksum(sec, castagnoli) != s.crc {
			return out, fmt.Errorf("store: section %d checksum mismatch", i)
		}
		out[i] = sec
	}
	return out, nil
}

func assemble(h snapHeader, secs [numSecs][]byte) (SnapshotData, error) {
	var data SnapshotData
	d := &data.CSR
	d.NumV = int(h.numV)
	d.NumE = h.numE
	d.MaxDeg = int(h.maxDeg)
	d.Epoch = h.epoch
	d.NumELabels = int(h.numELabels)
	d.Offsets = bytesToU64(secs[secOffsets], d.NumV+1)
	d.Adj = bytesToVID(secs[secAdj], int(2*h.numE))
	if h.flags&flagVLabels != 0 {
		d.Labels = bytesToLID(secs[secVLabels], d.NumV)
	}
	if h.flags&flagELabels != 0 {
		d.ELabels = bytesToLID(secs[secELabels], int(2*h.numE))
	}
	stats, err := plan.DecodeStats(secs[secStats])
	if err != nil {
		return data, err
	}
	data.Stats = stats
	specs, err := decodePlanSpecs(secs[secPlans])
	if err != nil {
		return data, err
	}
	data.Plans = specs
	return data, nil
}
