package rdf

import "testing"

// fuzzSeeds are representative documents from the unit-test fixtures —
// every syntactic feature the parser supports, so the fuzzer mutates
// from real structure instead of discovering the grammar from scratch.
var fuzzSeeds = []string{
	"",
	"# just a comment\n",
	`@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .
ex:a ex:p "hello" .
ex:a ex:q "bonjour"@fr .
ex:b ex:r "3.5"^^<http://www.w3.org/2001/XMLSchema#double> .
`,
	`@prefix ex: <http://example.org/> .
ex:a a ex:Class ;
     ex:p ex:b, ex:c ;
     ex:q 42 .
`,
	`@prefix ex: <http://example.org/> .
ex:a ex:knows [ ex:name "Bob" ; ex:age 42 ] .
_:x ex:p ex:b .
`,
	`@prefix ex: <http://example.org/> .
ex:a ex:list ( ex:b "two" 3 ) .
ex:empty ex:list () .
`,
	`PREFIX ex: <http://example.org/>
ex:a ex:p true .
ex:a ex:q false .
ex:a ex:r -17 .
ex:a ex:s 2.5e3 .
`,
	`@base <http://example.org/base/> .
@prefix ex: <http://example.org/> .
<rel> ex:p <http://abs.example/x> .
`,
	`@prefix ex: <http://e/> . ex:a ex:p """long
string with "quotes" and
newlines""" .
`,
	`@prefix ex: <http://e/> . ex:a ex:p "esc \t \n \" \\ \u00e9" .`,
	`<http://e/s> <http://e/p> <http://e/o> .`,
	// Near-miss documents: one byte away from valid.
	`@prefix ex: <http://e/> . ex:a ex:p "oops .`,
	`@prefix ex: <http://e/> . ex:a ex:p ex:b`,
	`@prefix ex: <http://e/> . ex:a ex:p [ ex:q ex:b .`,
}

// FuzzParseTurtle checks the full parse → serialize → reparse loop:
// any input must either fail with an error or round-trip to an
// identical graph — and must never panic.
func FuzzParseTurtle(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseTurtleString(src)
		if err != nil {
			if g != nil {
				t.Fatalf("error %v but non-nil graph", err)
			}
			return // clean rejection is fine
		}
		// Round-trip through Turtle: the serializer's output must parse
		// and mean the same graph.
		ttl := TurtleString(g, nil)
		g2, err := ParseTurtleString(ttl)
		if err != nil {
			t.Fatalf("serialized Turtle does not reparse: %v\noriginal:\n%s\nserialized:\n%s", err, src, ttl)
		}
		if !EqualGraphs(g, g2) {
			t.Fatalf("Turtle round-trip changed the graph\noriginal:\n%s\nserialized:\n%s\ngot:\n%s",
				src, ttl, TurtleString(g2, nil))
		}
	})
}

// FuzzParseNTriples: same contract for the line-oriented N-Triples
// subset, which the Turtle parser reads — error or exact round-trip,
// never a panic. Serialization is deterministic, so a second
// serialization of the reparsed graph must be byte-identical.
func FuzzParseNTriples(f *testing.F) {
	f.Add("<http://e/s> <http://e/p> <http://e/o> .\n")
	f.Add("<http://e/s> <http://e/p> \"lit\"@en .\n# comment\n\n")
	f.Add("_:b0 <http://e/p> \"3.5\"^^<http://www.w3.org/2001/XMLSchema#double> .\n")
	f.Add("<http://e/s> <http://e/p> \"esc \\t \\\" \\\\ \\u00e9\" .\n")
	f.Add("<http://e/s> <http://e/p> <http://e/o>")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseTurtleString(src)
		if err != nil {
			return
		}
		ttl := TurtleString(g, nil)
		g2, err := ParseTurtleString(ttl)
		if err != nil {
			t.Fatalf("serialized form does not reparse: %v\n%s", err, ttl)
		}
		if !EqualGraphs(g, g2) {
			t.Fatalf("round-trip changed the graph\nwant:\n%s\ngot:\n%s", ttl, TurtleString(g2, nil))
		}
		if ttl2 := TurtleString(g2, nil); ttl2 != ttl {
			t.Fatalf("serialization not stable:\nfirst:\n%s\nsecond:\n%s", ttl, ttl2)
		}
	})
}
