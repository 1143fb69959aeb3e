package ontology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func materialize(t *testing.T, o *Ontology) Result {
	t.Helper()
	res, err := Reasoner{}.Materialize(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRDFS11SubClassTransitivity(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	a, b, c := testNS.IRI("A"), testNS.IRI("B"), testNS.IRI("C")
	o.Class(a).Sub(b)
	o.Class(b).Sub(c)
	o.Class(c)
	materialize(t, o)
	if !o.Graph().Has(rdf.T(a, rdf.RDFSSubClassOf, c)) {
		t.Error("rdfs11 missing: A subClassOf C")
	}
}

func TestRDFS9TypeInheritance(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	cow, mammal := testNS.IRI("Cow"), testNS.IRI("Mammal")
	o.Class(cow).Sub(mammal)
	o.Class(mammal)
	o.Individual(testNS.IRI("daisy"), cow)
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("daisy"), rdf.RDFType, mammal)) {
		t.Error("rdfs9 missing: daisy type Mammal")
	}
}

func TestRDFS2Domain(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	o.Class(testNS.IRI("Sensor"))
	o.ObjectProperty(testNS.IRI("observes")).Domain(testNS.IRI("Sensor"))
	o.MustAssert(testNS.IRI("s1"), testNS.IRI("observes"), testNS.IRI("rain"))
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("s1"), rdf.RDFType, testNS.IRI("Sensor"))) {
		t.Error("rdfs2 missing: s1 type Sensor")
	}
}

func TestRDFS3RangeSkipsLiterals(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	o.Class(testNS.IRI("Property2"))
	o.ObjectProperty(testNS.IRI("observes")).Range(testNS.IRI("Property2"))
	o.MustAssert(testNS.IRI("s1"), testNS.IRI("observes"), testNS.IRI("rain"))
	o.MustAssert(testNS.IRI("s1"), testNS.IRI("observes"), rdf.NewLiteral("junk"))
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("rain"), rdf.RDFType, testNS.IRI("Property2"))) {
		t.Error("rdfs3 missing: rain typed by range")
	}
	// The literal must not be typed (it can't be a subject anyway).
	if o.Graph().Count(nil, rdf.RDFType, testNS.IRI("Property2")) != 1 {
		t.Error("rdfs3 typed something unexpected")
	}
}

func TestRDFS7PropertyInheritance(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	sub, super := testNS.IRI("hasDistrict"), testNS.IRI("hasRegion")
	o.ObjectProperty(sub).Sub(super)
	o.ObjectProperty(super)
	o.MustAssert(testNS.IRI("fs"), sub, testNS.IRI("mangaung"))
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("fs"), super, testNS.IRI("mangaung"))) {
		t.Error("rdfs7 missing: value via super-property")
	}
}

func TestRDFS5SubPropertyTransitivity(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	p, q, r := testNS.IRI("p"), testNS.IRI("q"), testNS.IRI("r")
	o.ObjectProperty(p).Sub(q)
	o.ObjectProperty(q).Sub(r)
	o.ObjectProperty(r)
	materialize(t, o)
	if !o.Graph().Has(rdf.T(p, rdf.RDFSSubPropertyOf, r)) {
		t.Error("rdfs5 missing")
	}
}

func TestOWLInverse(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	o.ObjectProperty(testNS.IRI("observes")).InverseOf(testNS.IRI("observedBy"))
	o.ObjectProperty(testNS.IRI("observedBy"))
	o.MustAssert(testNS.IRI("s1"), testNS.IRI("observes"), testNS.IRI("rain"))
	o.MustAssert(testNS.IRI("soil"), testNS.IRI("observedBy"), testNS.IRI("s2"))
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("rain"), testNS.IRI("observedBy"), testNS.IRI("s1"))) {
		t.Error("inverse (forward) missing")
	}
	if !o.Graph().Has(rdf.T(testNS.IRI("s2"), testNS.IRI("observes"), testNS.IRI("soil"))) {
		t.Error("inverse (backward) missing")
	}
}

func TestOWLSymmetric(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	o.ObjectProperty(testNS.IRI("adjacentTo"))
	o.MustAssert(testNS.IRI("adjacentTo"), rdf.RDFType, rdf.OWLSymmetricProperty)
	o.MustAssert(testNS.IRI("a"), testNS.IRI("adjacentTo"), testNS.IRI("b"))
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("b"), testNS.IRI("adjacentTo"), testNS.IRI("a"))) {
		t.Error("symmetric mirror missing")
	}
}

func TestOWLTransitive(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	o.ObjectProperty(testNS.IRI("partOf")).Transitive()
	o.MustAssert(testNS.IRI("a"), testNS.IRI("partOf"), testNS.IRI("b"))
	o.MustAssert(testNS.IRI("b"), testNS.IRI("partOf"), testNS.IRI("c"))
	o.MustAssert(testNS.IRI("c"), testNS.IRI("partOf"), testNS.IRI("d"))
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("a"), testNS.IRI("partOf"), testNS.IRI("d"))) {
		t.Error("transitive closure missing a→d")
	}
}

func TestOWLEquivalentClass(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	a, b := testNS.IRI("Precipitation"), testNS.IRI("Rainfall")
	o.Class(a)
	o.MustAssert(a, rdf.OWLEquivalentClass, b)
	o.Class(b)
	o.Individual(testNS.IRI("x"), a)
	materialize(t, o)
	g := o.Graph()
	if !g.Has(rdf.T(b, rdf.RDFSSubClassOf, a)) || !g.Has(rdf.T(a, rdf.RDFSSubClassOf, b)) {
		t.Error("equivalentClass should imply mutual subClassOf")
	}
	if !g.Has(rdf.T(testNS.IRI("x"), rdf.RDFType, b)) {
		t.Error("instance should inherit equivalent class")
	}
}

func TestOWLSameAs(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	o.Class(testNS.IRI("Station2"))
	a, b, c := testNS.IRI("st-A"), testNS.IRI("st-B"), testNS.IRI("st-C")
	o.Individual(a, testNS.IRI("Station2"))
	o.MustAssert(a, rdf.OWLSameAs, b)
	o.MustAssert(b, rdf.OWLSameAs, c)
	materialize(t, o)
	g := o.Graph()
	if !g.Has(rdf.T(b, rdf.OWLSameAs, a)) {
		t.Error("sameAs symmetry missing")
	}
	if !g.Has(rdf.T(a, rdf.OWLSameAs, c)) {
		t.Error("sameAs transitivity missing")
	}
	if !g.Has(rdf.T(c, rdf.RDFType, testNS.IRI("Station2"))) {
		t.Error("type propagation across sameAs missing")
	}
}

func TestDisjointSymmetry(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	o.Class(testNS.IRI("A")).DisjointWith(testNS.IRI("B"))
	o.Class(testNS.IRI("B"))
	materialize(t, o)
	if !o.Graph().Has(rdf.T(testNS.IRI("B"), rdf.OWLDisjointWith, testNS.IRI("A"))) {
		t.Error("disjointWith symmetry missing")
	}
}

func TestReasonerIdempotent(t *testing.T) {
	o := buildTestOntology()
	o.MustAssert(testNS.IRI("daisy"), testNS.IRI("eats"), testNS.IRI("grass"))
	first := materialize(t, o)
	if first.Added == 0 {
		t.Fatal("expected entailments on first run")
	}
	second := materialize(t, o)
	if second.Added != 0 {
		t.Errorf("second run added %d triples; closure not reached", second.Added)
	}
}

func TestReasonerMonotone(t *testing.T) {
	o := buildTestOntology()
	before := o.Graph().Triples()
	materialize(t, o)
	for _, tr := range before {
		if !o.Graph().Has(tr) {
			t.Fatalf("reasoner removed triple %v", tr)
		}
	}
}

func TestReasonerMaxRounds(t *testing.T) {
	o := New(testNS.IRI("o"), "")
	// A long subclass chain needs several rounds; with MaxRounds 1 it
	// cannot finish.
	prev := testNS.IRI("C0")
	o.Class(prev)
	for i := 1; i < 20; i++ {
		cur := testNS.IRI(string(rune('C')) + string(rune('0'+i%10)) + string(rune('a'+i/10)))
		o.Class(cur).Sub(prev)
		prev = cur
	}
	if _, err := (Reasoner{MaxRounds: 1}).Materialize(o); err == nil {
		t.Error("expected max-rounds error")
	}
}

// TestQuickReasonerProperties: on random ontologies the closure is
// monotone, idempotent, and every entailed subclass edge is sound
// (derivable by path reachability).
func TestQuickReasonerProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := New(testNS.IRI("o"), "")
		const n = 8
		classes := make([]rdf.IRI, n)
		for i := range classes {
			classes[i] = testNS.IRI("K" + string(rune('A'+i)))
			o.Class(classes[i])
		}
		// Random subclass edges (DAG-ish: from lower to higher index, plus a
		// few random ones to exercise cycles).
		reach := make(map[[2]int]bool)
		var edges [][2]int
		for i := 0; i < 12; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			o.Class(classes[a]).Sub(classes[b])
			edges = append(edges, [2]int{a, b})
			reach[[2]int{a, b}] = true
		}
		// Floyd-Warshall reference reachability.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[[2]int{i, k}] && reach[[2]int{k, j}] {
						reach[[2]int{i, j}] = true
					}
				}
			}
		}
		if _, err := (Reasoner{}).Materialize(o); err != nil {
			return false
		}
		// Soundness + completeness of subClassOf closure vs reference.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				has := o.Graph().Has(rdf.T(classes[i], rdf.RDFSSubClassOf, classes[j]))
				if has != reach[[2]int{i, j}] {
					return false
				}
			}
		}
		// Idempotence.
		res2, err := (Reasoner{}).Materialize(o)
		return err == nil && res2.Added == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
