package graphlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/rdf"
)

// The crash-recovery contract: a store that crashed at an arbitrary WAL
// byte position and reopened must equal a store that never crashed but
// simply stopped after some prefix of committed operations. These tests
// simulate the crash by copying the store directory and then truncating
// or bit-flipping the WAL tail at randomized offsets.

// op is one committed operation = exactly one WAL record.
type op struct {
	add []rdf.Triple
	del rdf.Triple
}

// genOps builds a deterministic mixed workload: bulletin batches, some
// shared-term small batches, and removals of earlier triples.
func genOps(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n)
	var added []rdf.Triple
	for i := 0; i < n; i++ {
		switch {
		case i > 3 && rng.Intn(4) == 0:
			ops = append(ops, op{del: added[rng.Intn(len(added))]})
		default:
			var ts []rdf.Triple
			if rng.Intn(2) == 0 {
				ts = bulletin(i)
			} else {
				for j := 0; j < 1+rng.Intn(5); j++ {
					ts = append(ts, rdf.T(
						iri("s/"+strconv.Itoa(rng.Intn(8))),
						iri("p/"+strconv.Itoa(rng.Intn(4))),
						rdf.NewInt(int64(rng.Intn(20))),
					))
				}
			}
			added = append(added, ts...)
			ops = append(ops, op{add: ts})
		}
	}
	return ops
}

// prefixGraphs returns reference graphs: prefixGraphs[j] is the state
// after the first j operations, applied to a plain in-memory graph.
func prefixGraphs(t *testing.T, ops []op) []*rdf.Graph {
	t.Helper()
	gs := make([]*rdf.Graph, len(ops)+1)
	g := rdf.NewGraph()
	gs[0] = g.Clone()
	for i, o := range ops {
		if o.del.S != nil {
			g.Remove(o.del)
		} else if err := g.AddAll(o.add...); err != nil {
			t.Fatal(err)
		}
		gs[i+1] = g.Clone()
	}
	return gs
}

// runStore applies ops to a fresh store at dir, syncing every record so
// the simulated crashes are about torn writes, not lost fsync windows.
func runStore(t *testing.T, dir string, ops []op) {
	t.Helper()
	st := openTestStore(t, dir, Config{})
	for _, o := range ops {
		if o.del.S != nil {
			if _, err := st.Remove(o.del); err != nil {
				t.Fatal(err)
			}
		} else if err := st.AddAll(o.add...); err != nil {
			t.Fatal(err)
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// lastWALSegment returns the path of the highest-offset WAL segment —
// the active one at crash time, where a torn write would land.
func lastWALSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	return segs[len(segs)-1]
}

// matchPrefix asserts g equals some reference prefix, returning which.
func matchPrefix(t *testing.T, g *rdf.Graph, prefixes []*rdf.Graph, what string) int {
	t.Helper()
	for j := len(prefixes) - 1; j >= 0; j-- {
		if rdf.EqualGraphs(g, prefixes[j]) {
			return j
		}
	}
	t.Fatalf("%s: recovered graph (%d triples) matches no operation prefix", what, g.Len())
	return -1
}

// crashScale is the span in which subtest names give a crash position:
// "at<n>" cuts or flips the segment n/crashScale of the way through. A
// fixed span (the segment's byte length when the names were fixed)
// keeps the names stable when the record encoding changes that length.
const crashScale = 3096

// testCrashEquivalence crashes a store at randomized WAL positions. The
// "cp-1" infix of the subtest names (no checkpoint) keeps them stable.
func testCrashEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := genOps(rng, 24)
	prefixes := prefixGraphs(t, ops)

	clean := t.TempDir()
	runStore(t, clean, ops)

	// Sanity: a clean reopen is the full prefix.
	{
		st := openTestStore(t, clean, Config{})
		if j := matchPrefix(t, st.Graph(), prefixes, "clean reopen"); j != len(ops) {
			t.Fatalf("clean reopen matched prefix %d, want %d", j, len(ops))
		}
		st.Close()
	}

	seg := lastWALSegment(t, clean)
	segData, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := filepath.Rel(clean, seg)

	for trial := 0; trial < 30; trial++ {
		at := rng.Intn(crashScale + 1)
		cut := at * len(segData) / crashScale
		t.Run(fmt.Sprintf("truncate_cp-1_at%d", at), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, clean, dir)
			if err := os.WriteFile(filepath.Join(dir, rel), segData[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after truncation to %d bytes: %v", cut, err)
			}
			defer st.Close()
			matchPrefix(t, st.Graph(), prefixes, "truncated tail")
			// Recovery must leave a writable store, not just a readable one.
			if err := st.AddAll(bulletin(1000)...); err != nil {
				t.Fatal(err)
			}
		})
	}

	for trial := 0; trial < 30; trial++ {
		at := rng.Intn(crashScale)
		pos := at * len(segData) / crashScale
		bit := byte(1) << rng.Intn(8)
		t.Run(fmt.Sprintf("bitflip_cp-1_at%d", at), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, clean, dir)
			mut := append([]byte(nil), segData...)
			mut[pos] ^= bit
			if err := os.WriteFile(filepath.Join(dir, rel), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			// A flipped bit is detected by the frame CRC (tail truncated
			// there) or by segment/record validation (clean open error).
			// What must never happen: a panic, or a graph that matches no
			// committed prefix.
			st, err := Open(Config{Dir: dir})
			if err != nil {
				return
			}
			defer st.Close()
			matchPrefix(t, st.Graph(), prefixes, "bit-flipped tail")
		})
	}
}

func TestCrashRecoveryEquivalence(t *testing.T) {
	t.Run("no_checkpoint", testCrashEquivalence)
}
