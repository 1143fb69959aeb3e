package graphlog

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/rdf"
)

func iri(s string) rdf.IRI { return rdf.IRI("http://dews.example/" + s) }

// bulletin returns a batch shaped like a SemanticWeb bulletin delivery.
func bulletin(n int) []rdf.Triple {
	b := iri("bulletin/kaduna/" + strconv.Itoa(n))
	return []rdf.Triple{
		rdf.T(b, iri("ont#type"), iri("ont#Bulletin")),
		rdf.T(b, iri("ont#district"), iri("district/kaduna")),
		rdf.T(b, iri("ont#severity"), rdf.NewInt(int64(n%5))),
		rdf.T(b, iri("ont#headline"), rdf.NewLangLiteral("drought alert "+strconv.Itoa(n), "en")),
		rdf.T(b, iri("ont#issued"), rdf.NewTypedLiteral("2015-03-0"+strconv.Itoa(n%9+1), rdf.XSDDate)),
		rdf.T(b, iri("ont#source"), rdf.BlankNode("src"+strconv.Itoa(n%3))),
	}
}

func openTestStore(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.Dir = dir
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = -1 // tests drive checkpoints explicitly
	}
	if cfg.FsyncInterval == 0 {
		cfg.FsyncInterval = time.Millisecond
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{})

	want := rdf.NewGraph()
	for i := 0; i < 10; i++ {
		ts := bulletin(i)
		if err := st.AddAll(ts...); err != nil {
			t.Fatal(err)
		}
		if err := want.AddAll(ts...); err != nil {
			t.Fatal(err)
		}
	}
	// One removal so replay exercises the delete path.
	gone := bulletin(3)[1]
	if ok, err := st.Remove(gone); err != nil || !ok {
		t.Fatalf("Remove = %v, %v; want true, nil", ok, err)
	}
	want.Remove(gone)
	// Removing an absent triple is a durable no-op.
	if ok, err := st.Remove(gone); err != nil || ok {
		t.Fatalf("second Remove = %v, %v; want false, nil", ok, err)
	}
	if !rdf.EqualGraphs(st.Graph(), want) {
		t.Fatal("live graph differs from reference")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, Config{})
	defer st2.Close()
	if !rdf.EqualGraphs(st2.Graph(), want) {
		t.Fatal("reopened graph differs from reference")
	}
	s := st2.Stats()
	if s.SnapshotLoaded {
		t.Fatal("no checkpoint ran, yet a snapshot was loaded")
	}
	if s.ReplayedRecords == 0 || s.Triples != want.Len() {
		t.Fatalf("stats = %+v, want full-WAL replay of %d triples", s, want.Len())
	}
}

func TestStoreCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{})
	want := rdf.NewGraph()
	add := func(n int) {
		t.Helper()
		ts := bulletin(n)
		if err := st.AddAll(ts...); err != nil {
			t.Fatal(err)
		}
		if err := want.AddAll(ts...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		add(i)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// An immediate second checkpoint has nothing to do.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1 (second was a no-op)", got)
	}
	for i := 8; i < 13; i++ {
		add(i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("snapshot files = %v, want exactly one", snaps)
	}

	st2 := openTestStore(t, dir, Config{})
	defer st2.Close()
	if !rdf.EqualGraphs(st2.Graph(), want) {
		t.Fatal("reopened graph differs from reference")
	}
	s := st2.Stats()
	if !s.SnapshotLoaded {
		t.Fatal("reopen did not use the snapshot")
	}
	if s.ReplayedRecords != 5 {
		t.Fatalf("replayed %d records, want 5 (only the post-checkpoint tail)", s.ReplayedRecords)
	}
	// New writes must keep working after a snapshot-based reopen (dict
	// cursor, blank-node seq, WAL offsets all restored).
	extra := bulletin(99)
	if err := st2.AddAll(extra...); err != nil {
		t.Fatal(err)
	}
	want.AddAll(extra...)
	if !rdf.EqualGraphs(st2.Graph(), want) {
		t.Fatal("post-reopen write diverged")
	}
}

func TestStoreSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{})
	want := rdf.NewGraph()
	for i := 0; i < 6; i++ {
		ts := bulletin(i)
		st.AddAll(ts...)
		want.AddAll(ts...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A corrupt snapshot claiming a high offset must be skipped; the WAL
	// is intact, so recovery falls back to a full replay.
	bad := filepath.Join(dir, "00000000000000000099"+snapSuffix)
	if err := os.WriteFile(bad, []byte("DEWGSNP1 this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir, Config{})
	defer st2.Close()
	if !rdf.EqualGraphs(st2.Graph(), want) {
		t.Fatal("graph after skipping corrupt snapshot differs")
	}
	if s := st2.Stats(); s.SnapshotsSkipped != 1 || s.SnapshotLoaded {
		t.Fatalf("stats = %+v, want one skipped snapshot and none loaded", s)
	}
}

// TestCheckpointKeepsOverflowingSnapshotName: a snapshot-like file name
// whose digits overflow a uint64 names no offset, so a checkpoint's
// sweep of older snapshots leaves the file alone.
func TestCheckpointKeepsOverflowingSnapshotName(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{})
	defer st.Close()
	// 10·2^64 + 3: read digit by digit into a uint64, it wraps to 3.
	odd := filepath.Join(dir, "184467440737095516163"+snapSuffix)
	if err := os.WriteFile(odd, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.AddAll(bulletin(i)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(odd); err != nil {
		t.Fatalf("checkpoint removed %s: %v", filepath.Base(odd), err)
	}
}

func TestStoreRefusesTruncatedWALWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{})
	for i := 0; i < 8; i++ {
		st.AddAll(bulletin(i)...)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.AddAll(bulletin(9)...)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Destroy the snapshot the WAL truncation relied on: the store must
	// refuse to open rather than serve the tail as if it were everything.
	snaps, _ := filepath.Glob(filepath.Join(dir, "*"+snapSuffix))
	for _, p := range snaps {
		os.Remove(p)
	}
	if _, err := Open(Config{Dir: dir, CheckpointInterval: -1}); err == nil {
		t.Fatal("Open succeeded with truncated WAL and no snapshot")
	}
}

func TestStoreChunksOversizedBatches(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{})
	n := walBatchTriples*2 + 100
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.T(iri("s/"+strconv.Itoa(i/10)), iri("p/"+strconv.Itoa(i%10)), rdf.NewInt(int64(i)))
	}
	if err := st.AddAll(ts...); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Appended; got != 3 {
		t.Fatalf("WAL records = %d, want 3 chunks", got)
	}
	if st.Graph().Len() != n {
		t.Fatalf("graph has %d triples, want %d", st.Graph().Len(), n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir, Config{})
	defer st2.Close()
	if st2.Graph().Len() != n {
		t.Fatalf("reopened graph has %d triples, want %d", st2.Graph().Len(), n)
	}
}

func TestStoreDedupesRewrites(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{})
	defer st.Close()
	ts := bulletin(1)
	if err := st.AddAll(ts...); err != nil {
		t.Fatal(err)
	}
	// Re-asserting the same facts appends nothing to the WAL.
	if err := st.AddAll(ts...); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Appended; got != 1 {
		t.Fatalf("WAL records = %d, want 1 (duplicate batch skipped)", got)
	}
}

func TestStoreClosedErrors(t *testing.T) {
	st := openTestStore(t, t.TempDir(), Config{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.AddAll(bulletin(0)...); err != ErrClosed {
		t.Fatalf("AddAll on closed store = %v, want ErrClosed", err)
	}
	// The rejected AddAll still interned the terms, so Remove's lookup
	// succeeds and it must hit the closed check.
	if _, err := st.Remove(bulletin(0)[0]); err != ErrClosed {
		t.Fatalf("Remove on closed store = %v, want ErrClosed", err)
	}
	if _, err := st.Remove(rdf.T(iri("never"), iri("seen"), iri("terms"))); err != nil {
		t.Fatalf("Remove of unknown triple = %v, want nil (lookup short-circuits)", err)
	}
	if err := st.Checkpoint(); err != ErrClosed {
		t.Fatalf("Checkpoint on closed store = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	var ts []rdf.Triple
	for i := 0; i < 50; i++ {
		ts = append(ts, bulletin(i)...)
	}
	if err := g.AddAll(ts...); err != nil {
		t.Fatal(err)
	}
	b := g.NewBlankNode() // bump the allocation cursor past the restores
	g.Add(rdf.T(b, iri("ont#note"), rdf.NewLiteral("generated")))

	path := filepath.Join(t.TempDir(), "g"+snapSuffix)
	if err := WriteSnapshotFile(path, g.Snapshot(), 42, g.BlankNodeSeq()); err != nil {
		t.Fatal(err)
	}
	g2, info, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALOffset != 42 || info.Triples != g.Len() {
		t.Fatalf("info = %+v, want offset 42 and %d triples", info, g.Len())
	}
	if !rdf.EqualGraphs(g, g2) {
		t.Fatal("snapshot round-trip changed the graph")
	}
	if g2.BlankNodeSeq() != g.BlankNodeSeq() {
		t.Fatalf("blank-node seq %d, want %d", g2.BlankNodeSeq(), g.BlankNodeSeq())
	}

	// Any single-byte corruption must be detected (framing CRCs cover
	// every section). Try a spread of positions.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{8, len(raw) / 3, len(raw) / 2, len(raw) - 5} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshotFile(path); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	// Truncations too.
	for _, n := range []int{0, 7, 100, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshotFile(path); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// TestStoreOpensSeededSnapshot: a snapshot written at WAL offset 1,
// dropped into an empty directory, opens as a full store that accepts
// writes.
func TestStoreOpensSeededSnapshot(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 4; i++ {
		if err := g.AddAll(bulletin(i)...); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := WriteSnapshotFile(filepath.Join(dir, "seed"+snapSuffix), g.Snapshot(), 1, g.BlankNodeSeq()); err != nil {
		t.Fatal(err)
	}

	st := openTestStore(t, dir, Config{})
	defer st.Close()
	if !rdf.EqualGraphs(st.Graph(), g) {
		t.Fatal("seeded store differs from bulk-loaded graph")
	}
	if !st.Stats().SnapshotLoaded {
		t.Fatal("stats do not report the seed snapshot as loaded")
	}
	if err := st.AddAll(bulletin(99)...); err != nil {
		t.Fatal(err)
	}
	if err := g.AddAll(bulletin(99)...); err != nil {
		t.Fatal(err)
	}
	if !rdf.EqualGraphs(st.Graph(), g) {
		t.Fatal("post-seed write diverged")
	}
}
