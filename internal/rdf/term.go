// Package rdf implements the RDF 1.1 data model used throughout the
// middleware: terms (IRIs, literals, blank nodes), triples, and an indexed
// in-memory graph with a Turtle serialization.
//
// The package is self-contained (stdlib only) and is the foundation for the
// ontology library (internal/ontology), the SPARQL-subset query engine
// (internal/sparql) and the semantic annotator (internal/mediator).
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the concrete type of a Term.
type TermKind int

const (
	// KindIRI identifies an IRI reference term.
	KindIRI TermKind = iota + 1
	// KindLiteral identifies a literal term (plain, typed or language-tagged).
	KindLiteral
	// KindBlank identifies a blank node term.
	KindBlank
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindLiteral:
		return "Literal"
	case KindBlank:
		return "BlankNode"
	default:
		return fmt.Sprintf("TermKind(%d)", int(k))
	}
}

// Term is an RDF term: an IRI, a literal, or a blank node.
//
// Terms are immutable value types. Equality is defined by Equal and by the
// Key method, which returns a canonical string usable as a map key.
type Term interface {
	// Kind reports the concrete kind of the term.
	Kind() TermKind
	// Key returns a canonical encoding of the term, unique across kinds,
	// suitable for use as a map key.
	Key() string
	// String returns the N-Triples representation of the term.
	String() string
}

// Equal reports whether two terms are equal under RDF term equality.
// Both nil is true; one nil is false.
func Equal(a, b Term) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Kind() != b.Kind() {
		return false
	}
	return a.Key() == b.Key()
}

// IRI is an absolute IRI reference such as
// "http://dews.africrid.example/ontology#Drought".
type IRI string

var _ Term = IRI("")

// Kind implements Term.
func (IRI) Kind() TermKind { return KindIRI }

// Key implements Term.
func (i IRI) Key() string { return "<" + string(i) + ">" }

// String returns the N-Triples form, e.g. <http://example.org/a>.
func (i IRI) String() string { return "<" + escapeIRI(string(i)) + ">" }

// Value returns the raw IRI string.
func (i IRI) Value() string { return string(i) }

// LocalName returns the fragment after the last '#' or '/', or the whole
// IRI when it has neither. It is a display convenience, not a semantic
// operation.
func (i IRI) LocalName() string {
	s := string(i)
	if idx := strings.LastIndexAny(s, "#/:"); idx >= 0 && idx+1 < len(s) {
		return s[idx+1:]
	}
	return s
}

// Literal is an RDF literal: a lexical form plus either a datatype IRI or a
// language tag. A literal with an empty Datatype and empty Lang is treated
// as xsd:string per RDF 1.1.
type Literal struct {
	// Lexical is the lexical form of the literal.
	Lexical string
	// Datatype is the datatype IRI; empty means xsd:string (or language
	// string when Lang is set).
	Datatype IRI
	// Lang is the language tag (lowercased), set only for language-tagged
	// strings, in which case Datatype must be empty or rdf:langString.
	Lang string
}

var _ Term = Literal{}

// Common XSD datatype IRIs.
const (
	XSDString   = IRI("http://www.w3.org/2001/XMLSchema#string")
	XSDBoolean  = IRI("http://www.w3.org/2001/XMLSchema#boolean")
	XSDInteger  = IRI("http://www.w3.org/2001/XMLSchema#integer")
	XSDDecimal  = IRI("http://www.w3.org/2001/XMLSchema#decimal")
	XSDDouble   = IRI("http://www.w3.org/2001/XMLSchema#double")
	XSDDateTime = IRI("http://www.w3.org/2001/XMLSchema#dateTime")
	XSDDate     = IRI("http://www.w3.org/2001/XMLSchema#date")
	// RDFLangString is the datatype of language-tagged strings.
	RDFLangString = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")
)

// NewLiteral returns a plain (xsd:string) literal.
func NewLiteral(lexical string) Literal {
	return Literal{Lexical: lexical}
}

// NewTypedLiteral returns a literal with an explicit datatype.
func NewTypedLiteral(lexical string, datatype IRI) Literal {
	if datatype == XSDString {
		datatype = ""
	}
	return Literal{Lexical: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged string literal. The tag is
// normalized to lower case.
func NewLangLiteral(lexical, lang string) Literal {
	return Literal{Lexical: lexical, Lang: strings.ToLower(lang)}
}

// NewBool returns an xsd:boolean literal.
func NewBool(v bool) Literal {
	return Literal{Lexical: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// NewInt returns an xsd:integer literal.
func NewInt(v int64) Literal {
	return Literal{Lexical: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewFloat returns an xsd:double literal.
func NewFloat(v float64) Literal {
	return Literal{Lexical: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDDouble}
}

// Kind implements Term.
func (Literal) Kind() TermKind { return KindLiteral }

// Key implements Term.
func (l Literal) Key() string {
	switch {
	case l.Lang != "":
		return "\"" + l.Lexical + "\"@" + l.Lang
	case l.Datatype != "":
		return "\"" + l.Lexical + "\"^^" + string(l.Datatype)
	default:
		return "\"" + l.Lexical + "\""
	}
}

// String returns the N-Triples form with escaping.
func (l Literal) String() string {
	var b strings.Builder
	b.WriteByte('"')
	b.WriteString(escapeLiteral(l.Lexical))
	b.WriteByte('"')
	switch {
	case l.Lang != "":
		b.WriteByte('@')
		b.WriteString(l.Lang)
	case l.Datatype != "" && l.Datatype != XSDString:
		b.WriteString("^^")
		b.WriteString(l.Datatype.String())
	}
	return b.String()
}

// EffectiveDatatype returns the datatype IRI taking RDF 1.1 defaults into
// account: xsd:string for plain literals, rdf:langString for language
// strings.
func (l Literal) EffectiveDatatype() IRI {
	switch {
	case l.Lang != "":
		return RDFLangString
	case l.Datatype == "":
		return XSDString
	default:
		return l.Datatype
	}
}

// IsNumeric reports whether the literal's datatype is one of the numeric
// XSD types understood by the query engine.
func (l Literal) IsNumeric() bool {
	switch l.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble:
		return true
	}
	return false
}

// Float returns the literal parsed as float64. The second result reports
// whether parsing succeeded (the literal need not be declared numeric; a
// plain "3.2" parses too).
func (l Literal) Float() (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(l.Lexical), 64)
	return f, err == nil
}

// Int returns the literal parsed as int64 and whether parsing succeeded.
func (l Literal) Int() (int64, bool) {
	v, err := strconv.ParseInt(strings.TrimSpace(l.Lexical), 10, 64)
	return v, err == nil
}

// Bool returns the literal parsed as xsd:boolean and whether parsing
// succeeded ("true", "false", "1", "0").
func (l Literal) Bool() (bool, bool) {
	switch strings.TrimSpace(l.Lexical) {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// BlankNode is a graph-scoped anonymous node identified by a label.
type BlankNode string

var _ Term = BlankNode("")

// Kind implements Term.
func (BlankNode) Kind() TermKind { return KindBlank }

// Key implements Term.
func (b BlankNode) Key() string { return "_:" + string(b) }

// String returns the N-Triples form, e.g. _:b0.
func (b BlankNode) String() string { return "_:" + string(b) }

// Label returns the blank node label without the "_:" prefix.
func (b BlankNode) Label() string { return string(b) }

// escapeLiteral escapes a literal lexical form for N-Triples output.
func escapeLiteral(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeIRI escapes characters not permitted inside an N-Triples IRIREF.
func escapeIRI(s string) string {
	if !strings.ContainsAny(s, "<>\"{}|^`\\ ") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '<', '>', '"', '{', '}', '|', '^', '`', '\\', ' ':
			fmt.Fprintf(&b, "\\u%04X", r)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
