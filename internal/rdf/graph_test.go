package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

var (
	exNS = Namespace("http://example.org/")
	exA  = exNS.IRI("a")
	exB  = exNS.IRI("b")
	exC  = exNS.IRI("c")
	exP  = exNS.IRI("p")
	exQ  = exNS.IRI("q")
)

func TestGraphAddHasRemove(t *testing.T) {
	g := NewGraph()
	tr := T(exA, exP, exB)
	if g.Has(tr) {
		t.Fatal("empty graph should not contain triple")
	}
	if err := g.Add(tr); err != nil {
		t.Fatal(err)
	}
	if !g.Has(tr) {
		t.Fatal("graph should contain added triple")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	// Duplicate add is a no-op.
	if err := g.Add(tr); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len after dup add = %d, want 1", g.Len())
	}
	if !g.Remove(tr) {
		t.Fatal("Remove should report true for present triple")
	}
	if g.Remove(tr) {
		t.Fatal("Remove should report false for absent triple")
	}
	if g.Len() != 0 {
		t.Fatalf("Len after remove = %d, want 0", g.Len())
	}
}

func TestGraphAddInvalid(t *testing.T) {
	g := NewGraph()
	tests := []Triple{
		{},                                   // all nil
		{S: exA, P: exP},                     // nil object
		{S: NewLiteral("x"), P: exP, O: exB}, // literal subject
		{S: exA, P: NewLiteral("p"), O: exB}, // literal predicate
		{S: exA, P: BlankNode("b"), O: exB},  // blank predicate
	}
	for i, tr := range tests {
		if err := g.Add(tr); err == nil {
			t.Errorf("case %d: Add(%v) should fail", i, tr)
		}
	}
	if g.Len() != 0 {
		t.Fatal("invalid adds must not change the graph")
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd on invalid triple should panic")
		}
	}()
	NewGraph().MustAdd(Triple{})
}

func TestGraphMatchPatterns(t *testing.T) {
	g := NewGraph()
	g.MustAdd(T(exA, exP, exB))
	g.MustAdd(T(exA, exP, exC))
	g.MustAdd(T(exA, exQ, exB))
	g.MustAdd(T(exB, exP, exC))
	g.MustAdd(T(exC, exQ, NewInt(5)))

	tests := []struct {
		name    string
		s, p, o Term
		want    int
	}{
		{"all wild", nil, nil, nil, 5},
		{"s bound", exA, nil, nil, 3},
		{"p bound", nil, exP, nil, 3},
		{"o bound", nil, nil, exB, 2},
		{"sp bound", exA, exP, nil, 2},
		{"so bound", exA, nil, exB, 2},
		{"po bound", nil, exP, exC, 2},
		{"spo bound hit", exA, exP, exB, 1},
		{"spo bound miss", exB, exQ, exA, 0},
		{"literal object", nil, nil, NewInt(5), 1},
		{"absent subject", exNS.IRI("zz"), nil, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := len(g.Match(tt.s, tt.p, tt.o)); got != tt.want {
				t.Errorf("Match returned %d triples, want %d", got, tt.want)
			}
			if got := g.Count(tt.s, tt.p, tt.o); got != tt.want {
				t.Errorf("Count = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestForEachMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.MustAdd(T(exA, exP, NewInt(int64(i))))
	}
	n := 0
	g.ForEachMatch(exA, exP, nil, func(Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestSubjectsObjectsFirstObject(t *testing.T) {
	g := NewGraph()
	g.MustAdd(T(exA, exP, exB))
	g.MustAdd(T(exC, exP, exB))
	g.MustAdd(T(exA, exQ, NewInt(1)))

	subs := g.Subjects(exP, exB)
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v, want 2", subs)
	}
	objs := g.Objects(exA, nil)
	if len(objs) != 2 {
		t.Fatalf("Objects = %v, want 2", objs)
	}
	o, ok := g.FirstObject(exA, exQ)
	if !ok || !Equal(o, NewInt(1)) {
		t.Fatalf("FirstObject = %v, %v", o, ok)
	}
	if _, ok := g.FirstObject(exB, exQ); ok {
		t.Fatal("FirstObject on absent pattern should report false")
	}
}

func TestDeterministicSubjects(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 50; i++ {
		g.MustAdd(T(exNS.IRI(fmt.Sprintf("s%02d", i)), exP, exB))
	}
	first := g.Subjects(exP, exB)
	for trial := 0; trial < 5; trial++ {
		again := g.Subjects(exP, exB)
		for i := range first {
			if !Equal(first[i], again[i]) {
				t.Fatal("Subjects order is not deterministic")
			}
		}
	}
}

func TestGraphMergeCloneEqual(t *testing.T) {
	g := NewGraph()
	g.MustAdd(T(exA, exP, exB))
	g.MustAdd(T(exB, exQ, NewLangLiteral("rain", "en")))

	c := g.Clone()
	if !EqualGraphs(g, c) {
		t.Fatal("clone should equal original")
	}
	c.MustAdd(T(exC, exP, exA))
	if EqualGraphs(g, c) {
		t.Fatal("graphs with different sizes should differ")
	}
	if g.Len() != 2 {
		t.Fatal("mutating clone must not affect original")
	}

	d := NewGraph()
	d.MustAdd(T(exA, exP, exB))
	d.MustAdd(T(exC, exP, exA)) // same size as g, different content
	if EqualGraphs(g, d) {
		t.Fatal("same-size different-content graphs should differ")
	}
}

func TestGraphConcurrency(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.MustAdd(T(exNS.IRI(fmt.Sprintf("w%d-%d", w, i)), exP, exB))
				g.Count(nil, exP, nil)
				g.Match(nil, nil, exB)
			}
		}(w)
	}
	wg.Wait()
	if g.Len() != 8*200 {
		t.Fatalf("Len = %d, want %d", g.Len(), 8*200)
	}
}

// TestQuickIndexCoherence checks that after a random add/remove workload,
// every pattern query agrees with a naive reference implementation.
func TestQuickIndexCoherence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		ref := make(map[string]Triple)
		terms := []Term{exA, exB, exC}
		preds := []Term{exP, exQ}
		for op := 0; op < 300; op++ {
			tr := T(terms[rng.Intn(3)], preds[rng.Intn(2)], terms[rng.Intn(3)])
			if rng.Intn(3) == 0 {
				g.Remove(tr)
				delete(ref, tr.Key())
			} else {
				g.MustAdd(tr)
				ref[tr.Key()] = tr
			}
		}
		if g.Len() != len(ref) {
			return false
		}
		// Every reference triple must be found via each index path.
		for _, tr := range ref {
			if !g.Has(tr) {
				return false
			}
			if len(g.Match(tr.S, tr.P, nil)) == 0 ||
				len(g.Match(nil, tr.P, tr.O)) == 0 ||
				len(g.Match(tr.S, nil, tr.O)) == 0 {
				return false
			}
		}
		// Full scan must equal reference exactly.
		all := g.Triples()
		if len(all) != len(ref) {
			return false
		}
		for _, tr := range all {
			if _, ok := ref[tr.Key()]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTripleValidateAndString(t *testing.T) {
	tr := T(exA, exP, NewLangLiteral("drought", "en"))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := `<http://example.org/a> <http://example.org/p> "drought"@en .`
	if tr.String() != want {
		t.Errorf("String() = %s, want %s", tr.String(), want)
	}
	if !tr.Equal(tr) {
		t.Error("triple should equal itself")
	}
	if tr.Equal(T(exA, exP, exB)) {
		t.Error("different triples should not be equal")
	}
}

func TestSortTriples(t *testing.T) {
	ts := []Triple{
		T(exB, exP, exA),
		T(exA, exQ, exA),
		T(exA, exP, exB),
		T(exA, exP, exA),
	}
	SortTriples(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Key() > ts[i].Key() {
			t.Fatalf("not sorted at %d: %v > %v", i, ts[i-1], ts[i])
		}
	}
}
