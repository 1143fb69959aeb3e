package ontology

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

var testNS = rdf.Namespace("http://test.example/")

func buildTestOntology() *Ontology {
	o := New(testNS.IRI("onto"), "test ontology")
	o.Class(testNS.IRI("Animal")).Label("animal", "en")
	o.Class(testNS.IRI("Mammal")).Sub(testNS.IRI("Animal"))
	o.Class(testNS.IRI("Cow")).Sub(testNS.IRI("Mammal")).Label("cow", "en").Label("khomo", "st")
	o.Class(testNS.IRI("Plant")).DisjointWith(testNS.IRI("Animal"))
	o.ObjectProperty(testNS.IRI("eats")).
		Domain(testNS.IRI("Animal")).
		Range(testNS.IRI("Plant")).
		Label("eats", "en")
	o.DatatypeProperty(testNS.IRI("age")).Domain(testNS.IRI("Animal"))
	o.Individual(testNS.IRI("daisy"), testNS.IRI("Cow"))
	return o
}

func TestOntologyHeader(t *testing.T) {
	o := buildTestOntology()
	if !o.Graph().Has(rdf.T(testNS.IRI("onto"), rdf.RDFType, rdf.OWLOntology)) {
		t.Error("missing owl:Ontology header")
	}
	if !o.Graph().Has(rdf.T(testNS.IRI("onto"), rdf.RDFSLabel, rdf.NewLangLiteral("test ontology", "en"))) {
		t.Error("missing ontology name label")
	}
}

func TestClassesAndProperties(t *testing.T) {
	o := buildTestOntology()
	classes := o.Classes()
	if len(classes) != 4 {
		t.Errorf("Classes = %v", classes)
	}
	props := o.Properties()
	if len(props) != 2 {
		t.Errorf("Properties = %v", props)
	}
	if !o.IsClass(testNS.IRI("Cow")) {
		t.Error("Cow should be a class")
	}
	if o.IsClass(testNS.IRI("daisy")) {
		t.Error("daisy is an individual, not a class")
	}
}

func TestSubClassClosure(t *testing.T) {
	o := buildTestOntology()
	supers := o.SuperClasses(testNS.IRI("Cow"))
	if len(supers) != 2 {
		t.Fatalf("SuperClasses(Cow) = %v", supers)
	}
	subs := o.SubClasses(testNS.IRI("Animal"))
	if len(subs) != 2 {
		t.Fatalf("SubClasses(Animal) = %v", subs)
	}
	if !o.IsSubClassOf(testNS.IRI("Cow"), testNS.IRI("Animal")) {
		t.Error("Cow should be subclass of Animal (transitively)")
	}
	if !o.IsSubClassOf(testNS.IRI("Cow"), testNS.IRI("Cow")) {
		t.Error("class is subclass of itself")
	}
	if o.IsSubClassOf(testNS.IRI("Animal"), testNS.IRI("Cow")) {
		t.Error("subclass relation must not invert")
	}
}

func TestSubClassCycleTerminates(t *testing.T) {
	o := New(testNS.IRI("onto"), "")
	a, b := testNS.IRI("A"), testNS.IRI("B")
	o.Class(a).Sub(b)
	o.Class(b).Sub(a)
	supers := o.SuperClasses(a)
	if len(supers) != 1 || supers[0] != b {
		t.Errorf("cycle closure = %v", supers)
	}
}

func TestImport(t *testing.T) {
	base := New(testNS.IRI("base"), "base")
	base.Class(testNS.IRI("Thing2"))
	o := New(testNS.IRI("onto"), "")
	o.Import(base)
	if !o.IsClass(testNS.IRI("Thing2")) {
		t.Error("imported class missing")
	}
	if !o.Graph().Has(rdf.T(testNS.IRI("onto"), rdf.OWLImports, testNS.IRI("base"))) {
		t.Error("owl:imports missing")
	}
}

func TestStats(t *testing.T) {
	o := buildTestOntology()
	s := o.Stats()
	if s.Classes != 4 || s.Properties != 2 || s.Individuals != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.SubClassAx != 2 || s.DomainAx != 2 || s.RangeAx != 1 {
		t.Errorf("axiom counts = %+v", s)
	}
	if !strings.Contains(s.String(), "classes=4") {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestAssertErrors(t *testing.T) {
	o := buildTestOntology()
	defer func() {
		if recover() == nil {
			t.Error("MustAssert should panic on bad triple")
		}
	}()
	o.MustAssert(rdf.NewLiteral("x"), testNS.IRI("p"), testNS.IRI("y"))
}
