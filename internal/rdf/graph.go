package rdf

import (
	"sort"
	"sync"
)

// deltaCap bounds the unsealed write buffer. Keeping it small keeps both
// the per-Add insertion memmove and the per-snapshot delta copy cheap;
// batch ingestion (AddAll, Merge, the parsers' output) goes through the
// sort-and-merge path instead and is not bound by it.
const deltaCap = 256

// Graph is an in-memory set of triples, dictionary-encoded: terms are
// interned to dense uint32 IDs and triples are stored as ID-triples in
// three sorted index permutations (SPO, POS, OSP), so every triple
// pattern with at least one bound component is answered by binary
// search over a contiguous range rather than hash lookups on serialized
// term strings.
//
// Writes go to a small sorted delta that is merged into the sealed base
// arrays when it fills up; Snapshot freezes the current state in O(delta)
// so reads (ForEachMatch, SPARQL evaluation) run lock-free on immutable
// data and never block writers.
//
// A Graph is safe for concurrent use. The zero value is not usable;
// call NewGraph.
type Graph struct {
	mu sync.RWMutex
	d  *dict
	// base holds the sealed, sorted bulk of the data. The arrays are
	// immutable once published (snapshots alias them); mutation replaces
	// them wholesale.
	base [nIndexes][]key3
	// mid is a sealed intermediate level between delta and base. It
	// absorbs delta compactions so the O(n) base merge is paid only once
	// per midCap(n) triples rather than once per deltaCap. Like base,
	// its arrays are immutable once published.
	mid [nIndexes][]key3
	// delta holds recent writes, sorted, mutated in place. Snapshots
	// copy it, so in-place mutation never invalidates a snapshot.
	delta [nIndexes][]key3
	n     int
	// snap caches the latest snapshot; nil after any mutation.
	snap *Snapshot
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{d: newDict()}
}

// Len returns the number of distinct triples in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.n
}

// DictLen returns the number of interned terms, which is also the
// highest assigned ID. It counts the shared dictionary, so clones of a
// graph report the same value.
func (g *Graph) DictLen() ID { return g.d.len() }

// Snapshot returns an immutable point-in-time view of the graph. It is
// O(len(delta)) when the graph changed since the last call and O(1)
// otherwise, so per-query snapshotting is cheap.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.snapshotLocked()
}

func (g *Graph) snapshotLocked() *Snapshot {
	if g.snap != nil {
		return g.snap
	}
	g.snap = newSnapshot(g.d, g.d.snapshotTerms(), g.base, g.mid, g.delta, g.n)
	return g.snap
}

// midCap bounds the intermediate level relative to the sealed bulk, so
// the amortized per-add merge cost stays constant as the graph grows.
func (g *Graph) midCap() int {
	if c := g.n / 8; c > 4096 {
		return c
	}
	return 4096
}

// Add inserts a triple. Adding an existing triple is a no-op. It returns
// an error when the triple is not well-formed.
func (g *Graph) Add(t Triple) error {
	if err := t.Validate(); err != nil {
		return err
	}
	it := IDTriple{S: g.d.intern(t.S), P: g.d.intern(t.P), O: g.d.intern(t.O)}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addLocked(it)
	return nil
}

func (g *Graph) addLocked(it IDTriple) {
	k := key3{it.S, it.P, it.O}
	if g.containsLocked(k) {
		return
	}
	for ix := 0; ix < nIndexes; ix++ {
		g.delta[ix] = insertSorted(g.delta[ix], toKey(ix, it))
	}
	g.n++
	g.snap = nil
	if len(g.delta[ixSPO]) >= deltaCap {
		g.compactLocked()
	}
}

func (g *Graph) containsLocked(k key3) bool {
	return contains3(g.base[ixSPO], k) || contains3(g.mid[ixSPO], k) ||
		contains3(g.delta[ixSPO], k)
}

// compactLocked merges the delta into a fresh mid level, and the mid
// level into fresh base arrays once it outgrows midCap. The old arrays
// are left untouched for any snapshot still aliasing them.
func (g *Graph) compactLocked() {
	for ix := 0; ix < nIndexes; ix++ {
		if len(g.delta[ix]) == 0 {
			continue
		}
		g.mid[ix] = mergeSorted(g.mid[ix], g.delta[ix])
		g.delta[ix] = nil
	}
	if len(g.mid[ixSPO]) >= g.midCap() {
		for ix := 0; ix < nIndexes; ix++ {
			g.base[ix] = mergeSorted(g.base[ix], g.mid[ix])
			g.mid[ix] = nil
		}
	}
}

// AddAll inserts every triple as one atomic batch: concurrent snapshots
// see either none or all of the batch. It stops at the first invalid
// triple; the valid prefix is still applied (documented fail-fast
// semantics).
func (g *Graph) AddAll(ts ...Triple) error {
	var ferr error
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			ferr, ts = err, ts[:i]
			break
		}
	}
	if len(ts) == 0 {
		return ferr
	}
	its := make([]IDTriple, len(ts))
	for i, t := range ts {
		its[i] = IDTriple{S: g.d.intern(t.S), P: g.d.intern(t.P), O: g.d.intern(t.O)}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addBatchLocked(its)
	return ferr
}

// addBatchLocked applies a batch of pre-interned triples atomically. Small
// batches go through the per-triple insert; larger ones sort the batch
// once per index and merge, instead of paying one insertion memmove (and
// potential compaction) per triple.
func (g *Graph) addBatchLocked(its []IDTriple) {
	if len(its) <= deltaCap {
		for _, it := range its {
			g.addLocked(it)
		}
		return
	}
	fresh := make([]key3, 0, len(its))
	for _, it := range its {
		k := key3{it.S, it.P, it.O}
		if g.containsLocked(k) {
			continue
		}
		fresh = append(fresh, k)
	}
	if len(fresh) == 0 {
		return
	}
	sort.Slice(fresh, func(i, j int) bool { return key3Less(fresh[i], fresh[j]) })
	// Batch-internal duplicates survive the membership filter; drop them.
	dedup := fresh[:1]
	for _, k := range fresh[1:] {
		if k != dedup[len(dedup)-1] {
			dedup = append(dedup, k)
		}
	}
	for ix := 0; ix < nIndexes; ix++ {
		batch := make([]key3, len(dedup))
		if ix == ixSPO {
			copy(batch, dedup)
		} else {
			for i, k := range dedup {
				batch[i] = toKey(ix, fromKey(ixSPO, k))
			}
			sort.Slice(batch, func(i, j int) bool { return key3Less(batch[i], batch[j]) })
		}
		// Merge into mid, not base: sustained batch ingest then costs
		// O(mid+batch) per batch, with the O(n) base fold amortized by
		// the midCap schedule exactly like the per-triple path.
		g.mid[ix] = mergeSorted(mergeSorted(g.mid[ix], g.delta[ix]), batch)
		g.delta[ix] = nil
	}
	g.n += len(dedup)
	if len(g.mid[ixSPO]) >= g.midCap() {
		for ix := 0; ix < nIndexes; ix++ {
			g.base[ix] = mergeSorted(g.base[ix], g.mid[ix])
			g.mid[ix] = nil
		}
	}
	g.snap = nil
}

// MustAdd inserts a triple and panics on malformed input. It is intended
// for static, programmer-authored data such as ontology axioms, where a
// malformed triple is a programming error.
func (g *Graph) MustAdd(t Triple) {
	if err := g.Add(t); err != nil {
		panic(err)
	}
}

// Remove deletes a triple, reporting whether it was present. Removal
// from the sealed base rebuilds the base arrays (O(n)); it is the rare
// operation in this workload and keeps the indexes tombstone-free.
func (g *Graph) Remove(t Triple) bool {
	if t.Validate() != nil {
		return false
	}
	sid, ok1 := g.d.lookup(t.S)
	pid, ok2 := g.d.lookup(t.P)
	oid, ok3 := g.d.lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	it := IDTriple{S: sid, P: pid, O: oid}
	k := key3{sid, pid, oid}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case contains3(g.delta[ixSPO], k):
		for ix := 0; ix < nIndexes; ix++ {
			g.delta[ix] = removeSorted(g.delta[ix], toKey(ix, it))
		}
	case contains3(g.mid[ixSPO], k):
		for ix := 0; ix < nIndexes; ix++ {
			g.mid[ix] = rebuildWithout(g.mid[ix], toKey(ix, it))
		}
	case contains3(g.base[ixSPO], k):
		for ix := 0; ix < nIndexes; ix++ {
			g.base[ix] = rebuildWithout(g.base[ix], toKey(ix, it))
		}
	default:
		return false
	}
	g.n--
	g.snap = nil
	return true
}

// Has reports whether the graph contains the exact triple.
func (g *Graph) Has(t Triple) bool {
	if t.Validate() != nil {
		return false
	}
	sid, ok1 := g.d.lookup(t.S)
	pid, ok2 := g.d.lookup(t.P)
	oid, ok3 := g.d.lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	k := key3{sid, pid, oid}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.containsLocked(k)
}

// rebuildWithout returns a fresh copy of a sealed sorted array with one
// element dropped (the sealed arrays are aliased by snapshots and must
// never be mutated in place).
func rebuildWithout(old []key3, kk key3) []key3 {
	fresh := make([]key3, 0, len(old)-1)
	for _, e := range old {
		if e != kk {
			fresh = append(fresh, e)
		}
	}
	return fresh
}

// Match returns all triples matching the pattern, where a nil component
// is a wildcard. The result order is unspecified.
func (g *Graph) Match(s, p, o Term) []Triple {
	return g.Snapshot().Match(s, p, o)
}

// Count returns the number of triples matching the pattern without
// materializing them.
func (g *Graph) Count(s, p, o Term) int {
	return g.Snapshot().Count(s, p, o)
}

// ForEachMatch streams triples matching the pattern to fn; iteration
// stops early when fn returns false. A nil component is a wildcard.
//
// Iteration runs over a snapshot, so fn may mutate the graph; the
// mutation is simply not visible to the ongoing iteration.
func (g *Graph) ForEachMatch(s, p, o Term, fn func(Triple) bool) {
	g.Snapshot().ForEachMatch(s, p, o, fn)
}

// Triples returns a snapshot of every triple in deterministic order.
func (g *Graph) Triples() []Triple {
	return g.Snapshot().Triples()
}

// Subjects returns the distinct subjects of triples matching (-, p, o).
func (g *Graph) Subjects(p, o Term) []Term {
	return g.Snapshot().Subjects(p, o)
}

// Objects returns the distinct objects of triples matching (s, p, -).
func (g *Graph) Objects(s, p Term) []Term {
	return g.Snapshot().Objects(s, p)
}

// FirstObject returns the object of an arbitrary triple matching
// (s, p, -) and whether one exists. It is the common accessor for
// functional properties.
func (g *Graph) FirstObject(s, p Term) (Term, bool) {
	return g.Snapshot().FirstObject(s, p)
}

// Merge adds every triple of src into g. Blank node labels are kept
// as-is; callers that need blank-node isolation should rename first.
func (g *Graph) Merge(src *Graph) {
	if err := g.AddAll(src.Triples()...); err != nil {
		// src held only validated triples; re-validation cannot fail.
		panic(err)
	}
}

// Clone returns a deep copy of the graph. The copy shares the (append-
// only) term dictionary and the sealed base arrays with the original;
// both are immutable, so the two graphs evolve independently.
func (g *Graph) Clone() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := &Graph{d: g.d, base: g.base, mid: g.mid, n: g.n}
	for ix := range g.delta {
		if len(g.delta[ix]) > 0 {
			out.delta[ix] = append([]key3(nil), g.delta[ix]...)
		}
	}
	return out
}

// EqualGraphs reports whether two graphs contain exactly the same triple
// set (no blank-node isomorphism — labels must match).
func EqualGraphs(a, b *Graph) bool {
	if a.Len() != b.Len() {
		return false
	}
	equal := true
	a.ForEachMatch(nil, nil, nil, func(t Triple) bool {
		if !b.Has(t) {
			equal = false
			return false
		}
		return true
	})
	return equal
}
