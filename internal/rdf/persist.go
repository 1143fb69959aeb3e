package rdf

import "fmt"

// This file is the exported, ID-level surface the graph write-ahead log
// (internal/graphlog) is built on: the pre-interned mutation entry
// points it needs so the bytes it frames are exactly the bytes replay
// applies, and the dictionary access that replay restores terms with.

// LevelLens returns the per-level run lengths of the snapshot's SPO
// index (base, mid, delta) — the merge-structure shape, surfaced in
// store stats.
func (s *Snapshot) LevelLens() (base, mid, delta int) {
	return len(s.base[ixSPO]), len(s.mid[ixSPO]), len(s.delta[ixSPO])
}

// LookupIDTriple resolves a triple to dictionary-encoded form without
// interning anything. ok is false when any term has never been interned
// — such a triple cannot be in the graph.
func (g *Graph) LookupIDTriple(t Triple) (IDTriple, bool) {
	s, ok := g.d.lookup(t.S)
	if !ok {
		return IDTriple{}, false
	}
	p, ok := g.d.lookup(t.P)
	if !ok {
		return IDTriple{}, false
	}
	o, ok := g.d.lookup(t.O)
	if !ok {
		return IDTriple{}, false
	}
	return IDTriple{S: s, P: p, O: o}, true
}

// InternTriples validates ts and interns every term, returning the batch
// in dictionary-encoded form. Like AddAll it stops at the first invalid
// triple: the valid prefix is returned along with the error, so callers
// can preserve AddAll's documented prefix-applied semantics.
func (g *Graph) InternTriples(ts []Triple) ([]IDTriple, error) {
	var ferr error
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			ferr, ts = err, ts[:i]
			break
		}
	}
	if len(ts) == 0 {
		return nil, ferr
	}
	its := make([]IDTriple, len(ts))
	for i, t := range ts {
		its[i] = IDTriple{S: g.d.intern(t.S), P: g.d.intern(t.P), O: g.d.intern(t.O)}
	}
	return its, ferr
}

// AddAllIDs applies a batch of pre-interned triples as one atomic batch
// and returns how many were new. Every ID must have been assigned by
// this graph's dictionary (via InternTriples or RestoreTerms); an
// out-of-range ID is rejected before anything is applied.
func (g *Graph) AddAllIDs(its []IDTriple) (int, error) {
	max := g.d.len()
	for _, it := range its {
		if it.S == 0 || it.S > max || it.P == 0 || it.P > max || it.O == 0 || it.O > max {
			return 0, fmt.Errorf("rdf: ID triple %v outside dictionary of %d terms", it, max)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addBatchLocked(its), nil
}

// HasID reports whether the graph contains the exact ID-triple.
func (g *Graph) HasID(it IDTriple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.containsLocked(key3{it.S, it.P, it.O})
}

// DictLen returns the number of interned terms, which is also the
// highest assigned ID. It counts the shared dictionary, so clones of a
// graph report the same value.
func (g *Graph) DictLen() ID { return g.d.len() }

// DictRange returns the terms with IDs in (after, DictLen()], in ID
// order. The returned slice aliases the append-only dictionary and must
// not be modified.
func (g *Graph) DictRange(after ID) []Term {
	g.d.mu.Lock()
	defer g.d.mu.Unlock()
	if int(after) >= len(g.d.terms) {
		return nil
	}
	return g.d.terms[after:]
}

// RestoreTerms extends the dictionary with terms whose IDs are already
// known: term i of the slice has ID firstID+i. IDs at or below the
// current DictLen must match the existing assignment (a WAL record's
// term delta can overlap the previous record's); an ID gap or a
// conflicting assignment is a corruption error.
func (g *Graph) RestoreTerms(firstID ID, terms []Term) error {
	if firstID == 0 {
		return fmt.Errorf("rdf: RestoreTerms with ID 0 (0 is the wildcard sentinel)")
	}
	for _, t := range terms {
		if t == nil {
			return fmt.Errorf("rdf: RestoreTerms with nil term")
		}
	}
	d := g.d
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range terms {
		id := firstID + ID(i)
		switch cur := ID(len(d.terms)); {
		case id <= cur:
			if d.terms[id-1].Key() != t.Key() {
				return fmt.Errorf("rdf: RestoreTerms conflict at ID %d: have %s, got %s",
					id, d.terms[id-1].Key(), t.Key())
			}
		case id == cur+1:
			d.terms = append(d.terms, t)
			d.ids.Store(t.Key(), id)
		default:
			return fmt.Errorf("rdf: RestoreTerms gap: next ID is %d, got %d", cur+1, id)
		}
	}
	return nil
}
