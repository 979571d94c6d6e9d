package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/plan"
)

// testGraph builds a small deterministic graph carrying vertex AND edge
// labels, so every snapshot section (offsets, adjacency, both label
// arrays, stats with label counts and edge triples) is exercised.
func testGraph() *graph.Graph {
	var b graph.Builder
	b.SetNumVertices(8)
	edges := [][3]int{
		{0, 1, 1}, {0, 2, 2}, {1, 2, 1}, {2, 3, 0},
		{3, 4, 2}, {4, 5, 1}, {5, 0, 0}, {1, 4, 2}, {6, 7, 1},
	}
	for _, e := range edges {
		b.AddLabeledEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.LabelID(e[2]))
	}
	for v := 0; v < 8; v++ {
		b.SetLabel(graph.VertexID(v), graph.LabelID(v%3))
	}
	return b.Build()
}

func testPlans() []PlanSpec {
	return []PlanSpec{
		{Family: "optimal", Name: "tri", NumV: 3, Edges: [][2]int{{0, 1}, {0, 2}, {1, 2}},
			VLabels: []int{0, -1, 1}, ELabels: []int{1, -1, 2}},
		{Family: "wco", Name: "path", NumV: 3, Edges: [][2]int{{0, 1}, {1, 2}}},
	}
}

func testData(g *graph.Graph) SnapshotData {
	return SnapshotData{CSR: g.Export(), Stats: plan.ComputeStats(g), Plans: testPlans()}
}

// checkRecovered asserts rec matches the expected live graph + stats chain
// bit for bit: same compacted CSR arrays, same statistics fingerprint.
func checkRecovered(t *testing.T, rec Recovered, g *graph.Graph, stats plan.GraphStats) {
	t.Helper()
	if rec.Epoch != g.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch, g.Epoch())
	}
	got, want := rec.Graph.Export(), g.Export()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered CSR differs from live:\n got  %+v\n want %+v", got, want)
	}
	if rec.Stats.Fingerprint() != stats.Fingerprint() {
		t.Fatalf("recovered stats fingerprint %016x != live %016x",
			rec.Stats.Fingerprint(), stats.Fingerprint())
	}
}

// testDeltas is a mixed update history: labelled inserts, deletes,
// relabels and vertex-label changes across five epochs.
func testDeltas() []graph.Delta {
	return []graph.Delta{
		{Insert: [][2]graph.VertexID{{0, 3}, {2, 5}}, InsertLabels: []graph.LabelID{2, 0}},
		{Delete: [][2]graph.VertexID{{0, 1}, {6, 7}}},
		{Relabel: []graph.EdgeLabel{{U: 0, V: 2, L: 0}, {U: 3, V: 4, L: 1}}},
		{Labels: []graph.VertexLabel{{V: 0, L: 2}, {V: 5, L: 0}}},
		{Insert: [][2]graph.VertexID{{6, 7}, {1, 5}}, InsertLabels: []graph.LabelID{1, 1},
			Delete: [][2]graph.VertexID{{2, 3}}},
	}
}

// buildStore creates a store in dir from testGraph, appends testDeltas
// through the exact live maintenance path, and returns the store plus the
// live graph and stats at the final epoch.
func buildStore(t *testing.T, dir string, opts Options) (*Store, *graph.Graph, plan.GraphStats) {
	t.Helper()
	g := testGraph()
	stats := plan.ComputeStats(g)
	st, err := Create(dir, SnapshotData{CSR: g.Export(), Stats: stats, Plans: testPlans()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDeltas() {
		ng, applied := graph.Apply(g, d)
		if err := st.Append(ng.Epoch(), d); err != nil {
			t.Fatal(err)
		}
		stats = plan.UpdateStats(stats, g, ng, applied)
		g = ng
	}
	return st, g, stats
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := testGraph()
	data := testData(g)
	dir := t.TempDir()
	if err := writeSnapshotFile(snapPath(dir, data.CSR.Epoch), data); err != nil {
		t.Fatal(err)
	}
	rec, err := loadSnapshot(dir, data.CSR.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Graph.Export(), data.CSR) {
		t.Fatal("CSR round-trip mismatch")
	}
	if rec.Stats.Fingerprint() != data.Stats.Fingerprint() {
		t.Fatal("stats fingerprint changed across round-trip")
	}
	if !reflect.DeepEqual(rec.Plans, data.Plans) {
		t.Fatalf("plans round-trip mismatch:\n got  %+v\n want %+v", rec.Plans, data.Plans)
	}
	// The loaded graph must behave, not just compare: FromCSR over the read
	// buffer serves adjacency without copying.
	if rec.Graph.NumEdges() != g.NumEdges() || rec.Graph.Degree(0) != g.Degree(0) {
		t.Fatal("FromCSR graph differs")
	}
}

func TestRecoveryOracle(t *testing.T) {
	dir := t.TempDir()
	st, g, stats := buildStore(t, dir, Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.LastEpoch() != g.Epoch() {
		t.Fatalf("recovered last epoch %d, want %d", st2.LastEpoch(), g.Epoch())
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, rec, g, stats)
	if len(rec.Plans) != len(testPlans()) {
		t.Fatalf("recovered %d plan specs, want %d", len(rec.Plans), len(testPlans()))
	}

	// The log stays appendable after recovery, continuing the epoch chain.
	d := graph.Delta{Insert: [][2]graph.VertexID{{3, 6}}}
	ng, _ := graph.Apply(rec.Graph, d)
	if err := st2.Append(ng.Epoch(), d); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeAtEveryEpoch(t *testing.T) {
	dir := t.TempDir()
	// Compact mid-history so time travel must pick between two snapshots.
	g := testGraph()
	stats := plan.ComputeStats(g)
	st, err := Create(dir, SnapshotData{CSR: g.Export(), Stats: stats}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type state struct {
		g     *graph.Graph
		stats plan.GraphStats
	}
	history := map[uint64]state{g.Epoch(): {g, stats}}
	for i, d := range testDeltas() {
		ng, applied := graph.Apply(g, d)
		if err := st.Append(ng.Epoch(), d); err != nil {
			t.Fatal(err)
		}
		stats = plan.UpdateStats(stats, g, ng, applied)
		g = ng
		history[g.Epoch()] = state{g, stats}
		if i == 2 {
			if err := st.Compact(SnapshotData{CSR: g.Export(), Stats: stats}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for epoch, want := range history {
		rec, err := st.MaterializeAt(epoch)
		if err != nil {
			t.Fatalf("MaterializeAt(%d): %v", epoch, err)
		}
		checkRecovered(t, rec, want.g, want.stats)
	}
	if _, err := st.MaterializeAt(g.Epoch() + 1); err == nil {
		t.Fatal("MaterializeAt past the newest epoch should fail")
	}
}

// TestCrashTornTail simulates a crash mid-append: the last log record is
// cut short. Recovery must land on the previous epoch and truncate the
// torn bytes so the log extends cleanly.
func TestCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := buildStore(t, dir, Options{})
	st.Close()

	wp := walPath(dir, 0)
	fi, err := os.Stat(wp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wp, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if want := g.Epoch() - 1; st2.LastEpoch() != want {
		t.Fatalf("after torn tail: last epoch %d, want %d", st2.LastEpoch(), want)
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != g.Epoch()-1 {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch, g.Epoch()-1)
	}
	// The torn bytes are gone: the next append must continue from the
	// truncated chain, and a re-open must agree.
	d := graph.Delta{Insert: [][2]graph.VertexID{{0, 6}}}
	if err := st2.Append(rec.Epoch+1, d); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.LastEpoch() != rec.Epoch+1 {
		t.Fatalf("after truncate+append: last epoch %d, want %d", st3.LastEpoch(), rec.Epoch+1)
	}
}

// TestCrashCorruptRecord flips one payload byte of the final record: the
// checksum must reject it and recovery stops at the previous epoch.
func TestCrashCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := buildStore(t, dir, Options{})
	st.Close()

	wp := walPath(dir, 0)
	b, err := os.ReadFile(wp)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(wp, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if want := g.Epoch() - 1; st2.LastEpoch() != want {
		t.Fatalf("after corrupt record: last epoch %d, want %d", st2.LastEpoch(), want)
	}
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidCompaction simulates a crash between writing a new snapshot
// and using it: the newest snapshot file is garbage (as if half-written),
// and a stray temp file lingers. Open must fall back to the older intact
// snapshot and replay the log over the full distance; MaterializeAt must
// do the same.
func TestCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	st, g, stats := buildStore(t, dir, Options{})
	// Compact at the final epoch, then vandalise the compaction snapshot.
	if err := st.Compact(SnapshotData{CSR: g.Export(), Stats: stats}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	sp := snapPath(dir, g.Epoch())
	b, err := os.ReadFile(sp)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+16] ^= 0xFF // flip a byte inside the offsets section
	if err := os.WriteFile(sp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-tmp123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.LastEpoch() != g.Epoch() {
		t.Fatalf("after corrupt compaction snapshot: last epoch %d, want %d", st2.LastEpoch(), g.Epoch())
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, rec, g, stats)
	rec, err = st2.MaterializeAt(g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, rec, g, stats)
}

// TestCrashStaleChecksumSnapshot corrupts the ONLY snapshot: recovery must
// refuse rather than serve silently wrong data.
func TestCrashStaleChecksumSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _, _ := buildStore(t, dir, Options{})
	st.Close()
	sp := snapPath(dir, 0)
	b, err := os.ReadFile(sp)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize] ^= 0xFF
	if err := os.WriteFile(sp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded with every snapshot corrupt")
	}
}

// reseal recomputes, in place, the checksum of every in-bounds section of
// the snapshot bytes b and then the header's, so damage to section content
// gets past the checksums and reaches assemble and graph.FromCSR.
func reseal(b []byte) {
	if len(b) < headerSize {
		return
	}
	for i := 0; i < numSecs; i++ {
		p := secTableOff + i*secEntrySize
		off, n := binary.LittleEndian.Uint64(b[p:]), binary.LittleEndian.Uint64(b[p+8:])
		if off <= uint64(len(b)) && n <= uint64(len(b))-off {
			binary.LittleEndian.PutUint32(b[p+16:], crc32.Checksum(b[off:off+n], castagnoli))
		}
	}
	binary.LittleEndian.PutUint32(b[hdrCRCOff:], crc32.Checksum(b[:hdrCRCOff], castagnoli))
}

// csrDamage breaks one CSR invariant of a snapshot's sections, each in a
// way that would index out of range once a query touched the graph.
var csrDamage = map[string]func(h snapHeader, offsets, adj []byte){
	"adjacency-id-past-V": func(h snapHeader, _, adj []byte) {
		binary.LittleEndian.PutUint32(adj[3*4:], uint32(h.numV))
	},
	"offsets-decrease": func(_ snapHeader, offsets, _ []byte) {
		binary.LittleEndian.PutUint64(offsets[8:], binary.LittleEndian.Uint64(offsets[16:])+1)
	},
}

// damageCSR applies csrDamage[kind] to the snapshot file at path and
// reseals it, so only the content check can tell.
func damageCSR(t *testing.T, path, kind string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	sec := func(i int) []byte { return b[h.secs[i].off : h.secs[i].off+h.secs[i].length] }
	csrDamage[kind](h, sec(secOffsets), sec(secAdj))
	reseal(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptContentSnapshot: a snapshot whose checksums all match but
// whose CSR content would index out of range is corrupt. As the store's
// only snapshot it fails Open with ErrCorrupt; as the newest one, Open and
// MaterializeAt fall back to the older intact snapshot and replay the log
// over the distance, as for a checksum mismatch (TestCrashMidCompaction).
func TestCorruptContentSnapshot(t *testing.T) {
	for kind := range csrDamage {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			st, _, _ := buildStore(t, dir, Options{})
			st.Close()
			damageCSR(t, snapPath(dir, 0), kind)
			if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open with the only snapshot damaged: err = %v, want ErrCorrupt", err)
			}

			dir = t.TempDir()
			st, g, stats := buildStore(t, dir, Options{})
			if err := st.Compact(SnapshotData{CSR: g.Export(), Stats: stats}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			damageCSR(t, snapPath(dir, g.Epoch()), kind)
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			rec, err := st2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, rec, g, stats)
			rec, err = st2.MaterializeAt(g.Epoch())
			if err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, rec, g, stats)
		})
	}
}

// TestRecoverAfterOpenReadsNoFile: Open recovers the state in its one pass
// over the files, and the first Recover hands that state over — so it
// still succeeds with every snapshot and segment file gone. A Recover
// after an Append materialises the newer state from disk.
func TestRecoverAfterOpenReadsNoFile(t *testing.T) {
	dir := t.TempDir()
	st, g, stats := buildStore(t, dir, Options{})
	st.Close()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover after Open re-read the store: %v", err)
	}
	checkRecovered(t, rec, g, stats)

	dir = t.TempDir()
	st, g, stats = buildStore(t, dir, Options{})
	st.Close()
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := graph.Delta{Insert: [][2]graph.VertexID{{3, 6}}}
	ng, applied := graph.Apply(g, d)
	if err := st.Append(ng.Epoch(), d); err != nil {
		t.Fatal(err)
	}
	if rec, err = st.Recover(); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, rec, ng, plan.UpdateStats(stats, g, ng, applied))
}

func TestCompactionPrunesWithDropHistory(t *testing.T) {
	dir := t.TempDir()
	st, g, stats := buildStore(t, dir, Options{DropHistory: true})
	defer st.Close()
	if err := st.Compact(SnapshotData{CSR: g.Export(), Stats: stats}); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listEpochs(dir, "snap-", ".snap")
	wals, _ := listEpochs(dir, "wal-", ".wal")
	if len(snaps) != 1 || snaps[0] != g.Epoch() {
		t.Fatalf("DropHistory kept snapshots %v, want just %d", snaps, g.Epoch())
	}
	if len(wals) != 1 || wals[0] != g.Epoch() {
		t.Fatalf("DropHistory kept segments %v, want just %d", wals, g.Epoch())
	}
	// History is gone: the pre-compaction epochs no longer materialise.
	if _, err := st.MaterializeAt(0); err == nil {
		t.Fatal("MaterializeAt(0) succeeded after DropHistory pruned epoch 0")
	}
	// The present still does.
	rec, err := st.MaterializeAt(g.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, rec, g, stats)
}

func TestAppendGuards(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := buildStore(t, dir, Options{})
	d := graph.Delta{Insert: [][2]graph.VertexID{{0, 7}}}
	if err := st.Append(g.Epoch()+2, d); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := st.Append(g.Epoch(), d); err == nil {
		t.Fatal("duplicate-epoch append accepted")
	}
	st.Close()
	if err := st.Append(g.Epoch()+1, d); err == nil {
		t.Fatal("append on closed store accepted")
	}
	if _, err := Create(dir, testData(testGraph()), Options{}); err == nil {
		t.Fatal("Create over an existing store accepted")
	}
}

// TestAppendFailureIsSticky: once an append fails — here after a partial
// write leaves a torn frame in the segment — every later append fails too,
// so no epoch is acknowledged behind a tear that replay would stop at.
// Reopening truncates the tear; recovery lands on the last good epoch.
func TestAppendFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	st, g, stats := buildStore(t, dir, Options{})
	d := graph.Delta{Insert: [][2]graph.VertexID{{0, 7}}}

	good := st.wal.f
	ro, err := os.Open(st.wal.path) // a handle that cannot be written
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	st.wal.f = ro
	if err := st.Append(g.Epoch()+1, d); err == nil {
		t.Fatal("append through an unwritable segment handle succeeded")
	}
	if _, err := good.Write([]byte{64, 0, 0, 0, 1, 2}); err != nil { // the torn frame a partial write leaves
		t.Fatal(err)
	}
	st.wal.f = good
	if err := st.Append(g.Epoch()+1, d); err == nil {
		t.Fatal("append after a failed append succeeded: its epoch would sit behind the torn frame")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, rec, g, stats)
	if err := st.Append(g.Epoch()+1, d); err != nil {
		t.Fatalf("append on the reopened store: %v", err)
	}
}

func TestWALRoundTripDelta(t *testing.T) {
	for _, d := range testDeltas() {
		payload := encodeWALPayload(42, d)
		epoch, got, err := decodeWALPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 42 || !reflect.DeepEqual(got, d) {
			t.Fatalf("delta round-trip mismatch:\n got  %+v\n want %+v", got, d)
		}
	}
	// Truncated payloads must error, never panic or misparse.
	full := encodeWALPayload(7, testDeltas()[0])
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeWALPayload(full[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(full))
		}
	}
}

// TestSnapshotDeterministicBytes pins that snapshot encoding is a pure
// function of its input — the property the golden-file test relies on.
func TestSnapshotDeterministicBytes(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	if err := writeSnapshotFile(p1, testData(g)); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshotFile(p2, testData(g)); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two snapshots of identical data differ byte-for-byte")
	}
}

// TestGoldenSnapshotFormat byte-compares a snapshot of a fixed graph
// against the committed golden file, pinning the on-disk format. If this
// fails because the format deliberately changed, bump Version in
// format.go, note the migration in the package comment, and regenerate
// with UPDATE_STORE_GOLDEN=1 go test ./internal/store -run Golden.
func TestGoldenSnapshotFormat(t *testing.T) {
	golden := filepath.Join("testdata", "snap_v1.golden")
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := writeSnapshotFile(path, testData(testGraph())); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_STORE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_STORE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes diverge from %s (%d vs %d bytes): the on-disk "+
			"format changed — if intentional, bump Version and add a migration note",
			golden, len(got), len(want))
	}
}

// TestFormatVersionPinned fails if the magic or version constant changes
// without the ceremony the golden test describes — the CI lint guard for
// silent format breaks.
func TestFormatVersionPinned(t *testing.T) {
	if Magic != "HUGESNAP" || Version != 1 {
		t.Fatalf("snapshot format identity changed (magic %q version %d): "+
			"document the migration in internal/store/format.go, regenerate "+
			"testdata/snap_v*.golden, and update this pin", Magic, Version)
	}
}
