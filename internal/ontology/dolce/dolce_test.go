package dolce

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/rdf"
)

func TestBuildTaxonomy(t *testing.T) {
	o := Build()
	pairs := []struct{ sub, super rdf.IRI }{
		{PhysicalObject, Endurant},
		{AmountOfMatter, Endurant},
		{Process, Perdurant},
		{State, Perdurant},
		{Event, Perdurant},
		{Accomplishment, Event},
		{TimeInterval, Abstract},
		{PhysicalQuality, Quality},
	}
	for _, p := range pairs {
		if !o.IsSubClassOf(p.sub, p.super) {
			t.Errorf("%s should be under %s", p.sub.LocalName(), p.super.LocalName())
		}
	}
	if o.IsSubClassOf(Endurant, Perdurant) {
		t.Error("endurant/perdurant branches must be separate")
	}
}

func TestEndurantPerdurantDisjoint(t *testing.T) {
	o := Build()
	if _, err := (ontology.Reasoner{}).Materialize(o); err != nil {
		t.Fatal(err)
	}
	if !o.Graph().Has(rdf.T(Endurant, rdf.OWLDisjointWith, Perdurant)) {
		t.Error("endurant must be disjoint with perdurant")
	}
}

func TestClassify(t *testing.T) {
	o := Build()
	cases := []struct {
		cls  rdf.IRI
		want Category
	}{
		{PhysicalObject, CategoryEndurant},
		{Process, CategoryPerdurant},
		{PhysicalQuality, CategoryQuality},
		{TimeInterval, CategoryAbstract},
		{NS.IRI("Unknown"), CategoryUnknown},
	}
	for _, c := range cases {
		if got := Classify(o, c.cls); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.cls.LocalName(), got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		CategoryEndurant:  "endurant",
		CategoryPerdurant: "perdurant",
		CategoryQuality:   "quality",
		CategoryAbstract:  "abstract",
		CategoryUnknown:   "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestRelationsHaveDomainsAndInverses(t *testing.T) {
	o := Build()
	g := o.Graph()
	if !g.Has(rdf.T(ParticipatesIn, rdf.RDFSDomain, Endurant)) {
		t.Error("participatesIn domain missing")
	}
	if !g.Has(rdf.T(ParticipatesIn, rdf.OWLInverseOf, HasParticipant)) {
		t.Error("participatesIn inverse missing")
	}
	if !g.Has(rdf.T(PartOf, rdf.RDFType, rdf.OWLTransitiveProperty)) {
		t.Error("partOf must be transitive")
	}
}
