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
	if s.ReplayedRecords == 0 || s.Triples != want.Len() {
		t.Fatalf("stats = %+v, want full-WAL replay of %d triples", s, want.Len())
	}
}

func TestStoreRefusesTruncatedWALWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Config{SegmentBytes: 256})
	for i := 0; i < 8; i++ {
		st.AddAll(bulletin(i)...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop the oldest WAL segment, as an older build's checkpoint did once
	// a snapshot covered it: the store must refuse to open rather than
	// serve the tail as if it were everything.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("WAL segments = %v (err %v), want at least two", segs, err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
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
	if err := st.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
