package rdf

import "sort"

// The three index permutations. Each index stores triples with their
// components permuted into (A, B, C) key order and sorted
// lexicographically, so that every triple pattern with at least one
// bound component is a contiguous range in one of them:
//
//	ixSPO: A=S B=P C=O   answers (s - -), (s p -), (s p o)
//	ixPOS: A=P B=O C=S   answers (- p -), (- p o)
//	ixOSP: A=O B=S C=P   answers (- - o), (s - o)
const (
	ixSPO = iota
	ixPOS
	ixOSP
	nIndexes
)

// key3 is one entry of a permuted index: a triple with its components
// reordered into the index's (A, B, C) key order.
type key3 struct{ A, B, C ID }

func key3Less(x, y key3) bool {
	if x.A != y.A {
		return x.A < y.A
	}
	if x.B != y.B {
		return x.B < y.B
	}
	return x.C < y.C
}

// toKey permutes a triple into index order.
func toKey(ix int, t IDTriple) key3 {
	switch ix {
	case ixPOS:
		return key3{t.P, t.O, t.S}
	case ixOSP:
		return key3{t.O, t.S, t.P}
	default:
		return key3{t.S, t.P, t.O}
	}
}

// fromKey undoes toKey.
func fromKey(ix int, k key3) IDTriple {
	switch ix {
	case ixPOS:
		return IDTriple{S: k.C, P: k.A, O: k.B}
	case ixOSP:
		return IDTriple{S: k.B, P: k.C, O: k.A}
	default:
		return IDTriple{S: k.A, P: k.B, O: k.C}
	}
}

// range1 returns the [lo, hi) range of entries whose first component
// equals a.
func range1(arr []key3, a ID) (int, int) {
	lo := sort.Search(len(arr), func(i int) bool { return arr[i].A >= a })
	hi := sort.Search(len(arr), func(i int) bool { return arr[i].A > a })
	return lo, hi
}

// range2 returns the [lo, hi) range of entries whose first two
// components equal (a, b).
func range2(arr []key3, a, b ID) (int, int) {
	lo := sort.Search(len(arr), func(i int) bool {
		e := arr[i]
		return e.A > a || (e.A == a && e.B >= b)
	})
	hi := sort.Search(len(arr), func(i int) bool {
		e := arr[i]
		return e.A > a || (e.A == a && e.B > b)
	})
	return lo, hi
}

// contains3 reports whether the sorted array holds exactly k.
func contains3(arr []key3, k key3) bool {
	i := sort.Search(len(arr), func(i int) bool { return !key3Less(arr[i], k) })
	return i < len(arr) && arr[i] == k
}

// insertSorted inserts k into the sorted array, keeping it sorted. The
// caller has already established that k is absent.
func insertSorted(arr []key3, k key3) []key3 {
	i := sort.Search(len(arr), func(i int) bool { return key3Less(k, arr[i]) })
	arr = append(arr, key3{})
	copy(arr[i+1:], arr[i:])
	arr[i] = k
	return arr
}

// removeSorted deletes k from the sorted array in place.
func removeSorted(arr []key3, k key3) []key3 {
	i := sort.Search(len(arr), func(i int) bool { return !key3Less(arr[i], k) })
	if i < len(arr) && arr[i] == k {
		copy(arr[i:], arr[i+1:])
		arr = arr[:len(arr)-1]
	}
	return arr
}

// mergeSorted merges two sorted, duplicate-free arrays into a fresh one.
func mergeSorted(base, delta []key3) []key3 {
	out := make([]key3, 0, len(base)+len(delta))
	i, j := 0, 0
	for i < len(base) && j < len(delta) {
		if key3Less(base[i], delta[j]) {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, delta[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, delta[j:]...)
	return out
}

// Snapshot is an immutable point-in-time view of a Graph. All reads are
// lock-free: the snapshot shares the graph's sealed base arrays and owns
// a private copy of the small unsealed delta, so concurrent writers
// never invalidate it and a long-running query never blocks a writer.
//
// Snapshots also expose the dictionary-encoded (ID-level) form of the
// data, which the SPARQL executor joins over directly.
type Snapshot struct {
	d     *dict
	terms []Term // frozen decode table: ID-1 → term
	base  [nIndexes][]key3
	mid   [nIndexes][]key3
	delta [nIndexes][]key3
	n     int
}

// newSnapshot builds a snapshot over a graph's current runs: the sealed
// base and mid arrays are shared (the graph never mutates them in
// place), the small unsealed delta is copied so later writes cannot
// leak into the frozen view. After this constructor returns, the
// snapshot is frozen.
func newSnapshot(d *dict, terms []Term, base, mid, delta [nIndexes][]key3, n int) *Snapshot {
	s := &Snapshot{d: d, terms: terms, base: base, mid: mid, n: n}
	for i := range delta {
		if len(delta[i]) > 0 {
			s.delta[i] = append([]key3(nil), delta[i]...)
		}
	}
	return s
}

// levels returns the snapshot's sorted runs for one index, largest
// first.
func (s *Snapshot) levels(ix int) [3][]key3 {
	return [3][]key3{s.base[ix], s.mid[ix], s.delta[ix]}
}

// Len returns the number of triples in the snapshot.
func (s *Snapshot) Len() int { return s.n }

// LevelLens returns the per-level run lengths of the snapshot's SPO
// index (base, mid, delta) — the merge-structure shape, surfaced in
// store stats.
func (s *Snapshot) LevelLens() (base, mid, delta int) {
	return len(s.base[ixSPO]), len(s.mid[ixSPO]), len(s.delta[ixSPO])
}

// LookupID resolves a term to its dictionary ID. A term the dictionary
// has never seen cannot occur in any triple of this snapshot.
func (s *Snapshot) LookupID(t Term) (ID, bool) {
	if t == nil {
		return 0, false
	}
	return s.d.lookup(t)
}

// TermOf decodes an ID back to its term, or nil for 0 / unknown IDs.
func (s *Snapshot) TermOf(id ID) Term {
	if id == 0 || int(id) > len(s.terms) {
		return nil
	}
	return s.terms[id-1]
}

// indexFor picks the index and bound-prefix arity for a pattern with the
// given bound components (0 = wildcard).
func indexFor(sp, pp, op ID) (ix int, arity int) {
	switch {
	case sp != 0 && pp != 0:
		return ixSPO, 2 // (s p -) and (s p o): o checked by caller
	case pp != 0 && op != 0:
		return ixPOS, 2
	case sp != 0 && op != 0:
		return ixOSP, 2
	case sp != 0:
		return ixSPO, 1
	case pp != 0:
		return ixPOS, 1
	case op != 0:
		return ixOSP, 1
	default:
		return ixSPO, 0
	}
}

// prefix returns the index-order key prefix for the pattern.
func prefix(ix int, sp, pp, op ID) (ID, ID) {
	k := toKey(ix, IDTriple{S: sp, P: pp, O: op})
	return k.A, k.B
}

// ForEachMatchID streams ID-triples matching the pattern (0 components
// are wildcards) until fn returns false. It returns false when stopped
// early. The iteration order within one call is deterministic (sealed
// base in index order, then the delta in index order).
func (s *Snapshot) ForEachMatchID(sp, pp, op ID, fn func(IDTriple) bool) bool {
	if sp != 0 && pp != 0 && op != 0 {
		if s.HasID(IDTriple{S: sp, P: pp, O: op}) {
			return fn(IDTriple{S: sp, P: pp, O: op})
		}
		return true
	}
	ix, arity := indexFor(sp, pp, op)
	a, b := prefix(ix, sp, pp, op)
	for _, arr := range s.levels(ix) {
		lo, hi := 0, len(arr)
		switch arity {
		case 1:
			lo, hi = range1(arr, a)
		case 2:
			lo, hi = range2(arr, a, b)
		}
		for _, k := range arr[lo:hi] {
			if !fn(fromKey(ix, k)) {
				return false
			}
		}
	}
	return true
}

// CountID returns the number of triples matching the ID pattern without
// iterating them (two binary searches per array).
func (s *Snapshot) CountID(sp, pp, op ID) int {
	if sp != 0 && pp != 0 && op != 0 {
		if s.HasID(IDTriple{S: sp, P: pp, O: op}) {
			return 1
		}
		return 0
	}
	ix, arity := indexFor(sp, pp, op)
	a, b := prefix(ix, sp, pp, op)
	n := 0
	for _, arr := range s.levels(ix) {
		switch arity {
		case 0:
			n += len(arr)
		case 1:
			lo, hi := range1(arr, a)
			n += hi - lo
		case 2:
			lo, hi := range2(arr, a, b)
			n += hi - lo
		}
	}
	return n
}

// HasID reports whether the exact ID-triple is present.
func (s *Snapshot) HasID(t IDTriple) bool {
	k := key3{t.S, t.P, t.O}
	return contains3(s.base[ixSPO], k) || contains3(s.mid[ixSPO], k) ||
		contains3(s.delta[ixSPO], k)
}

// resolve maps a term-level pattern to IDs. ok is false when a bound
// term is not in the dictionary, i.e. the pattern cannot match.
func (s *Snapshot) resolve(t Term) (ID, bool) {
	if t == nil {
		return 0, true
	}
	id, ok := s.d.lookup(t)
	return id, ok
}

// ForEachMatch streams triples matching the term-level pattern to fn
// (nil components are wildcards); iteration stops when fn returns false.
func (s *Snapshot) ForEachMatch(sub, pred, obj Term, fn func(Triple) bool) {
	sp, ok1 := s.resolve(sub)
	pp, ok2 := s.resolve(pred)
	op, ok3 := s.resolve(obj)
	if !ok1 || !ok2 || !ok3 {
		return
	}
	s.ForEachMatchID(sp, pp, op, func(t IDTriple) bool {
		return fn(Triple{S: s.terms[t.S-1], P: s.terms[t.P-1], O: s.terms[t.O-1]})
	})
}

// Match returns all triples matching the pattern.
func (s *Snapshot) Match(sub, pred, obj Term) []Triple {
	var out []Triple
	s.ForEachMatch(sub, pred, obj, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Count returns the number of triples matching the term-level pattern.
func (s *Snapshot) Count(sub, pred, obj Term) int {
	sp, ok1 := s.resolve(sub)
	pp, ok2 := s.resolve(pred)
	op, ok3 := s.resolve(obj)
	if !ok1 || !ok2 || !ok3 {
		return 0
	}
	return s.CountID(sp, pp, op)
}

// Has reports whether the snapshot contains the exact triple.
func (s *Snapshot) Has(t Triple) bool {
	if t.Validate() != nil {
		return false
	}
	sp, ok1 := s.resolve(t.S)
	pp, ok2 := s.resolve(t.P)
	op, ok3 := s.resolve(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	return s.HasID(IDTriple{S: sp, P: pp, O: op})
}

// FirstObject returns the object of an arbitrary triple matching
// (s, p, -) and whether one exists.
func (s *Snapshot) FirstObject(sub, pred Term) (Term, bool) {
	var out Term
	s.ForEachMatch(sub, pred, nil, func(t Triple) bool {
		out = t.O
		return false
	})
	return out, out != nil
}

// Subjects returns the distinct subjects of triples matching (-, p, o).
// Deduplication runs over uint32 IDs; each distinct subject is decoded
// exactly once at the end, instead of once per matching triple into a
// string-keyed map.
func (s *Snapshot) Subjects(p, o Term) []Term {
	pp, ok1 := s.resolve(p)
	op, ok2 := s.resolve(o)
	if !ok1 || !ok2 {
		return []Term{}
	}
	seen := make(map[ID]struct{})
	s.ForEachMatchID(0, pp, op, func(t IDTriple) bool {
		seen[t.S] = struct{}{}
		return true
	})
	return s.decodeDistinct(seen)
}

// Objects returns the distinct objects of triples matching (s, p, -),
// deduplicated over IDs like Subjects.
func (s *Snapshot) Objects(sub, p Term) []Term {
	sp, ok1 := s.resolve(sub)
	pp, ok2 := s.resolve(p)
	if !ok1 || !ok2 {
		return []Term{}
	}
	seen := make(map[ID]struct{})
	s.ForEachMatchID(sp, pp, 0, func(t IDTriple) bool {
		seen[t.O] = struct{}{}
		return true
	})
	return s.decodeDistinct(seen)
}

// decodeDistinct decodes a set of IDs and sorts the terms by canonical
// key — the same deterministic order the string-keyed dedupe produced,
// but paid only once per distinct term.
func (s *Snapshot) decodeDistinct(seen map[ID]struct{}) []Term {
	type keyed struct {
		t Term
		k string
	}
	ks := make([]keyed, 0, len(seen))
	for id := range seen {
		t := s.terms[id-1]
		ks = append(ks, keyed{t: t, k: t.Key()})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].k < ks[j].k })
	out := make([]Term, len(ks))
	for i, e := range ks {
		out[i] = e.t
	}
	return out
}

// Triples returns every triple in deterministic (SPO key) order.
func (s *Snapshot) Triples() []Triple {
	out := make([]Triple, 0, s.n)
	s.ForEachMatch(nil, nil, nil, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	SortTriples(out)
	return out
}
