package rdf

import (
	"strings"
	"testing"
)

func TestAddAll(t *testing.T) {
	g := NewGraph()
	if err := g.AddAll(T(exA, exP, exB), T(exB, exP, exC)); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	if err := g.AddAll(T(exC, exP, exA), Triple{}); err == nil {
		t.Fatal("invalid triple in batch should error")
	}
	// The valid prefix of the failed batch was applied (documented
	// fail-fast semantics).
	if g.Len() != 3 {
		t.Fatalf("Len after partial batch = %d", g.Len())
	}
}

func TestIRIValue(t *testing.T) {
	if IRI("http://x/a").Value() != "http://x/a" {
		t.Error("Value should return the raw IRI")
	}
}

func TestBlankNodeLabel(t *testing.T) {
	if BlankNode("b7").Label() != "b7" {
		t.Error("Label should strip nothing")
	}
}

func TestParseTurtleEscapedIRI(t *testing.T) {
	g, err := ParseTurtleString(`<http://example.org/aA> <http://example.org/p> <http://example.org/b> .`)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(T(IRI("http://example.org/aA"), IRI("http://example.org/p"), IRI("http://example.org/b"))) {
		t.Errorf("unicode escape in IRI not decoded: %v", g.Triples())
	}
}

func TestTurtleSerializerEscapesRoundTrip(t *testing.T) {
	g := NewGraph()
	// An IRI containing a space must serialize escaped (prefix
	// compaction refuses it) and survive the round trip.
	weird := IRI("http://example.org/has space")
	g.MustAdd(T(exA, exP, weird))
	s := TurtleString(g, nil)
	if !strings.Contains(s, `<http://example.org/has\u0020space>`) {
		t.Errorf("space not escaped:\n%s", s)
	}
	g2, err := ParseTurtleString(s)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	// The escape decodes back to the literal character.
	if g2.Len() != 1 {
		t.Fatalf("Len = %d", g2.Len())
	}
	if !g2.Has(T(exA, exP, weird)) {
		t.Errorf("escaped IRI did not round-trip: %s", TurtleString(g2, nil))
	}
}
