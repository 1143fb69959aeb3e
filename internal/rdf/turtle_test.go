package rdf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := ParseTurtleString(src)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return g
}

func TestParseTurtleBasic(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .
ex:a ex:p "hello" .
ex:a ex:q "bonjour"@fr .
ex:b ex:r "3.5"^^<http://www.w3.org/2001/XMLSchema#double> .
`)
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	a := IRI("http://example.org/a")
	p := IRI("http://example.org/p")
	if !g.Has(T(a, p, IRI("http://example.org/b"))) {
		t.Error("missing iri triple")
	}
	if !g.Has(T(a, p, NewLiteral("hello"))) {
		t.Error("missing plain literal triple")
	}
	if !g.Has(T(a, IRI("http://example.org/q"), NewLangLiteral("bonjour", "fr"))) {
		t.Error("missing lang literal triple")
	}
}

func TestParseTurtleAbbreviations(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://example.org/> .
ex:a a ex:Class ;
     ex:p ex:b, ex:c ;
     ex:q 42 .
`)
	a := IRI("http://example.org/a")
	if !g.Has(T(a, RDFType, IRI("http://example.org/Class"))) {
		t.Error("'a' keyword not handled")
	}
	if !g.Has(T(a, IRI("http://example.org/p"), IRI("http://example.org/c"))) {
		t.Error("object list not handled")
	}
	if !g.Has(T(a, IRI("http://example.org/q"), Literal{Lexical: "42", Datatype: XSDInteger})) {
		t.Error("integer abbreviation not handled")
	}
}

func TestParseTurtleNumericForms(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://example.org/> .
ex:a ex:int 7 .
ex:a ex:neg -3 .
ex:a ex:dec 2.75 .
ex:a ex:dbl 1.0e6 .
ex:a ex:bool true .
ex:a ex:boolf false .
`)
	ex := Namespace("http://example.org/")
	cases := []struct {
		p    IRI
		want Literal
	}{
		{ex.IRI("int"), Literal{Lexical: "7", Datatype: XSDInteger}},
		{ex.IRI("neg"), Literal{Lexical: "-3", Datatype: XSDInteger}},
		{ex.IRI("dec"), Literal{Lexical: "2.75", Datatype: XSDDecimal}},
		{ex.IRI("dbl"), Literal{Lexical: "1.0e6", Datatype: XSDDouble}},
		{ex.IRI("bool"), Literal{Lexical: "true", Datatype: XSDBoolean}},
		{ex.IRI("boolf"), Literal{Lexical: "false", Datatype: XSDBoolean}},
	}
	for _, c := range cases {
		if !g.Has(T(ex.IRI("a"), c.p, c.want)) {
			t.Errorf("missing %s %s", c.p, c.want)
		}
	}
}

func TestParseTurtleBlankNodes(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p _:x .
_:x ex:q ex:b .
ex:c ex:r [ ex:s ex:d ; ex:t "v" ] .
ex:e ex:u [] .
`)
	if !g.Has(T(IRI("http://example.org/a"), IRI("http://example.org/p"), BlankNode("x"))) {
		t.Error("labelled blank as object missing")
	}
	if !g.Has(T(BlankNode("x"), IRI("http://example.org/q"), IRI("http://example.org/b"))) {
		t.Error("labelled blank as subject missing")
	}
	// The anonymous node must carry both inner properties.
	inner := g.Match(nil, IRI("http://example.org/s"), IRI("http://example.org/d"))
	if len(inner) != 1 {
		t.Fatalf("bracket blank properties: %v", inner)
	}
	bn := inner[0].S
	if !g.Has(T(bn, IRI("http://example.org/t"), NewLiteral("v"))) {
		t.Error("second property of bracket blank missing")
	}
	if g.Count(IRI("http://example.org/e"), IRI("http://example.org/u"), nil) != 1 {
		t.Error("empty [] object missing")
	}
}

func TestParseTurtleCollections(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://example.org/> .
ex:a ex:list ( ex:x ex:y ex:z ) .
ex:b ex:empty ( ) .
`)
	// Walk the list.
	head, ok := g.FirstObject(IRI("http://example.org/a"), IRI("http://example.org/list"))
	if !ok {
		t.Fatal("list head missing")
	}
	var items []Term
	for !Equal(head, RDFNil) {
		first, ok := g.FirstObject(head, RDFFirst)
		if !ok {
			t.Fatal("broken list: no rdf:first")
		}
		items = append(items, first)
		rest, ok := g.FirstObject(head, RDFRest)
		if !ok {
			t.Fatal("broken list: no rdf:rest")
		}
		head = rest
	}
	if len(items) != 3 {
		t.Fatalf("list items = %v", items)
	}
	if e, ok := g.FirstObject(IRI("http://example.org/b"), IRI("http://example.org/empty")); !ok || !Equal(e, RDFNil) {
		t.Errorf("empty collection should be rdf:nil, got %v", e)
	}
}

func TestParseTurtleStringEscapes(t *testing.T) {
	g := mustParse(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p "tab\there\nnewline \"quote\" back\\slash" .
ex:a ex:q "unicode é and \U0001F600" .
ex:a ex:r """long
string with "quotes" inside""" .
`)
	var found bool
	g.ForEachMatch(nil, IRI("http://example.org/p"), nil, func(tr Triple) bool {
		l := tr.O.(Literal)
		found = l.Lexical == "tab\there\nnewline \"quote\" back\\slash"
		return false
	})
	if !found {
		t.Error("escape handling wrong for ex:p")
	}
	g.ForEachMatch(nil, IRI("http://example.org/q"), nil, func(tr Triple) bool {
		l := tr.O.(Literal)
		if l.Lexical != "unicode é and 😀" {
			t.Errorf("unicode escapes: %q", l.Lexical)
		}
		return false
	})
	g.ForEachMatch(nil, IRI("http://example.org/r"), nil, func(tr Triple) bool {
		l := tr.O.(Literal)
		if !strings.Contains(l.Lexical, "\"quotes\"") || !strings.Contains(l.Lexical, "\n") {
			t.Errorf("long string: %q", l.Lexical)
		}
		return false
	})
}

func TestParseTurtleComments(t *testing.T) {
	g := mustParse(t, `
# leading comment
@prefix ex: <http://example.org/> . # trailing comment
ex:a ex:p ex:b . # another
# done
`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestParseTurtleSparqlStyleDirectives(t *testing.T) {
	g := mustParse(t, `
PREFIX ex: <http://example.org/>
ex:a ex:p ex:b .
`)
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestParseTurtleBase(t *testing.T) {
	g := mustParse(t, `
@base <http://example.org/base/> .
@prefix ex: <http://example.org/> .
<rel> ex:p <#frag> .
`)
	if !g.Has(T(IRI("http://example.org/base/rel"), IRI("http://example.org/p"), IRI("http://example.org/base/#frag"))) {
		t.Errorf("base resolution failed: %v", g.Triples())
	}
}

func TestParseTurtleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown prefix", `ex:a ex:p ex:b .`},
		{"unterminated iri", `<http://example.org/a ex:p ex:b .`},
		{"unterminated string", `@prefix ex: <http://e/> . ex:a ex:p "oops .`},
		{"missing dot", `@prefix ex: <http://e/> . ex:a ex:p ex:b`},
		{"literal subject", `@prefix ex: <http://e/> . "lit" ex:p ex:b .`},
		{"bare word", `@prefix ex: <http://e/> . ex:a ex:p banana .`},
		{"lone caret", `@prefix ex: <http://e/> . ex:a ex:p "x"^ .`},
		{"bad escape", `@prefix ex: <http://e/> . ex:a ex:p "\z" .`},
		{"bad unicode escape", `@prefix ex: <http://e/> . ex:a ex:p "\u00zz" .`},
		{"unclosed bracket", `@prefix ex: <http://e/> . ex:a ex:p [ ex:q ex:b .`},
		{"empty blank label", `@prefix ex: <http://e/> . _: ex:p ex:b .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseTurtleString(c.src); err == nil {
				t.Errorf("expected parse error for %q", c.src)
			}
		})
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	src := `
@prefix dews: <http://dews.africrid.example/ontology/drought#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
dews:Drought a rdfs:Class ;
    rdfs:label "Drought"@en, "Komelelo"@st ;
    rdfs:comment "A prolonged water deficit event." .
dews:severity rdfs:domain dews:Drought .
`
	g1 := mustParse(t, src)
	out := TurtleString(g1, nil)
	g2, err := ParseTurtleString(out)
	if err != nil {
		t.Fatalf("reparse: %v\noutput:\n%s", err, out)
	}
	if !EqualGraphs(g1, g2) {
		t.Errorf("round trip lost triples:\n%s\nvs\n%s", TurtleString(g1, nil), TurtleString(g2, nil))
	}
}

// TestParseNTriplesErrors feeds malformed N-Triples lines to the Turtle
// parser, which reads the N-Triples subset.
func TestParseNTriplesErrors(t *testing.T) {
	cases := []string{
		`<http://e/a> <http://e/p> .`,            // missing object
		`<http://e/a> "lit" <http://e/b> .`,      // literal predicate
		`"lit" <http://e/p> <http://e/b> .`,      // literal subject
		`<http://e/a> <http://e/p> <http://e/b>`, // missing dot
	}
	for _, src := range cases {
		if _, err := ParseTurtleString(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// randomGraph builds a pseudo-random graph with a mixture of term types.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	ns := Namespace("http://example.org/ns#")
	words := []string{"rain", "soil", "heat", "wind", "maize", "Hoehe", "Stav", "komelelo"}
	langs := []string{"en", "st", "af", "zu", "de", "cs"}
	for i := 0; i < n; i++ {
		s := Term(ns.IRI(words[rng.Intn(len(words))] + "S"))
		if rng.Intn(4) == 0 {
			s = BlankNode(words[rng.Intn(len(words))])
		}
		p := ns.IRI(words[rng.Intn(len(words))] + "P")
		var o Term
		switch rng.Intn(5) {
		case 0:
			o = ns.IRI(words[rng.Intn(len(words))])
		case 1:
			o = NewLangLiteral(words[rng.Intn(len(words))]+" value\twith\nescapes\"", langs[rng.Intn(len(langs))])
		case 2:
			o = NewInt(rng.Int63n(1000) - 500)
		case 3:
			o = NewFloat(rng.Float64() * 100)
		default:
			o = BlankNode(words[rng.Intn(len(words))])
		}
		g.MustAdd(T(s, p, o))
	}
	return g
}

// TestQuickTurtleRoundTrip: serialize∘parse is the identity on random graphs.
func TestQuickTurtleRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1 := randomGraph(rng, 40)
		out := TurtleString(g1, nil)
		g2, err := ParseTurtleString(out)
		if err != nil {
			t.Logf("parse error: %v\n%s", err, out)
			return false
		}
		return EqualGraphs(g1, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPrefixMap(t *testing.T) {
	pm := DefaultPrefixes()
	iri, err := pm.Resolve("rdfs:label")
	if err != nil || iri != RDFSLabel {
		t.Fatalf("Resolve = %v, %v", iri, err)
	}
	if _, err := pm.Resolve("nope:x"); err == nil {
		t.Error("unknown prefix should error")
	}
	if _, err := pm.Resolve("noColon"); err == nil {
		t.Error("non-pname should error")
	}
	if got := pm.Compact(RDFSLabel); got != "rdfs:label" {
		t.Errorf("Compact = %q", got)
	}
	if got := pm.Compact(IRI("http://unknown.example/x")); !strings.HasPrefix(got, "<") {
		t.Errorf("unmatched IRI should stay angle-bracketed, got %q", got)
	}
	// Longest-namespace wins.
	pm.Bind("short", Namespace("http://long.example/"))
	pm.Bind("long", Namespace("http://long.example/deep/"))
	if got := pm.Compact(IRI("http://long.example/deep/x")); got != "long:x" {
		t.Errorf("longest-match compaction failed: %q", got)
	}
	// Local names needing escapes are not compacted.
	if got := pm.Compact(IRI("http://long.example/deep/a b")); !strings.HasPrefix(got, "<") {
		t.Errorf("invalid local name must not compact: %q", got)
	}
}

func TestNamespaceHelpers(t *testing.T) {
	ns := Namespace("http://example.org/v#")
	i := ns.IRI("Thing")
	if !ns.Contains(i) {
		t.Error("Contains failed")
	}
	local, ok := ns.Local(i)
	if !ok || local != "Thing" {
		t.Errorf("Local = %q, %v", local, ok)
	}
	if _, ok := ns.Local(IRI("http://other/x")); ok {
		t.Error("Local on foreign IRI should fail")
	}
}

func TestPrefixOrdering(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("z", "http://z/")
	pm.Bind("a", "http://a/")
	pm.Bind("z", "http://z2/") // rebind keeps position
	if got := pm.Prefixes(); got[0] != "z" || got[1] != "a" {
		t.Errorf("Prefixes = %v", got)
	}
	if got := pm.SortedPrefixes(); got[0] != "a" || got[1] != "z" {
		t.Errorf("SortedPrefixes = %v", got)
	}
	ns, ok := pm.Namespace("z")
	if !ok || ns != "http://z2/" {
		t.Errorf("rebind failed: %v", ns)
	}
}
