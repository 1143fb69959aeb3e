package rdf

import "sync"

// ID is a dictionary-assigned identifier for an interned term. IDs are
// dense, start at 1 and are never reused; 0 is reserved as "no term"
// (used as the wildcard sentinel in ID-level matching).
type ID uint32

// IDTriple is a triple in dictionary-encoded form.
type IDTriple struct {
	S, P, O ID
}

// dict interns terms to dense uint32 IDs. It is append-only: a term,
// once assigned an ID, keeps it for the lifetime of the dictionary.
//
// Lookups go through a sync.Map, so snapshot readers resolve query
// constants without taking any lock. Assignment (and growth of the
// reverse slice) is serialized by mu. The reverse slice is only ever
// appended to, so a slice header captured under mu remains valid
// forever: later appends either write past the captured length or
// reallocate, never disturbing already-published entries.
type dict struct {
	ids sync.Map // term key (string) → ID

	mu    sync.Mutex
	terms []Term // ID-1 → term
}

func newDict() *dict { return &dict{} }

// lookup resolves a term to its ID without interning it.
func (d *dict) lookup(t Term) (ID, bool) {
	v, ok := d.ids.Load(t.Key())
	if !ok {
		return 0, false
	}
	return v.(ID), true
}

// intern returns the ID for t, assigning a fresh one when unseen.
func (d *dict) intern(t Term) ID {
	key := t.Key()
	if v, ok := d.ids.Load(key); ok {
		return v.(ID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Double-check: another writer may have interned t meanwhile.
	if v, ok := d.ids.Load(key); ok {
		return v.(ID)
	}
	d.terms = append(d.terms, t)
	id := ID(len(d.terms))
	d.ids.Store(key, id)
	return id
}

// len returns the number of interned terms (the highest assigned ID).
func (d *dict) len() ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return ID(len(d.terms))
}

// snapshotTerms captures the current reverse-lookup slice. The returned
// slice is immutable from the caller's point of view.
func (d *dict) snapshotTerms() []Term {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.terms
}
