package drought

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/rdf"
)

// TestReasonerDeterministicAcrossSerialization: building the library,
// serializing it to Turtle, reparsing and re-reasoning must produce
// exactly the same entailment closure as reasoning over the in-memory
// build — the property a deployment relies on when it ships the ontology
// as a document.
func TestReasonerDeterministicAcrossSerialization(t *testing.T) {
	direct, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}

	// Serialize the *asserted* (pre-reasoning) library and rebuild.
	asserted := Build()
	text := rdf.TurtleString(asserted.Graph(), rdf.DefaultPrefixes())
	reparsed, err := rdf.ParseTurtleString(text)
	if err != nil {
		t.Fatal(err)
	}
	viaDocument := ontology.FromGraph(reparsed, IRIVersion)
	if _, err := (ontology.Reasoner{}).Materialize(viaDocument); err != nil {
		t.Fatal(err)
	}

	if direct.Graph().Len() != viaDocument.Graph().Len() {
		t.Fatalf("closure sizes differ: direct %d vs via-document %d",
			direct.Graph().Len(), viaDocument.Graph().Len())
	}
	if !rdf.EqualGraphs(direct.Graph(), viaDocument.Graph()) {
		t.Fatal("closures differ triple-wise after serialization round trip")
	}
}

// TestClosureIdempotentUnderReserialization: reasoning an already-closed
// graph that went through Turtle adds nothing.
func TestClosureIdempotentUnderReserialization(t *testing.T) {
	direct, _, err := BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	text := rdf.TurtleString(direct.Graph(), rdf.DefaultPrefixes())
	reparsed, err := rdf.ParseTurtleString(text)
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.FromGraph(reparsed, IRIVersion)
	res, err := ontology.Reasoner{}.Materialize(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 0 {
		t.Errorf("closed graph gained %d triples after round trip", res.Added)
	}
}
