// Package ontology provides the schema layer of the middleware's unified
// ontology library (Figure 1 of the paper): typed builders for classes and
// properties over an RDF graph and a forward-chaining RDFS/OWL-subset
// entailment engine.
//
// The concrete ontologies — the DOLCE upper level, the SSN-style sensor
// vocabulary and the drought domain — live in the sub-packages
// ontology/dolce, ontology/ssn and ontology/drought and are all built
// through this package's API.
package ontology

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// Ontology wraps an RDF graph with schema-level accessors. The graph holds
// both terminology (classes, properties, axioms) and assertions
// (individuals); the reasoner materializes entailments into the same
// graph.
type Ontology struct {
	g   *rdf.Graph
	iri rdf.IRI
}

// New returns an empty ontology identified by the given IRI.
func New(iri rdf.IRI, name string) *Ontology {
	o := &Ontology{g: rdf.NewGraph(), iri: iri}
	o.g.MustAdd(rdf.T(iri, rdf.RDFType, rdf.OWLOntology))
	if name != "" {
		o.g.MustAdd(rdf.T(iri, rdf.RDFSLabel, rdf.NewLangLiteral(name, "en")))
	}
	return o
}

// FromGraph wraps an existing graph as an ontology without adding any
// header triples.
func FromGraph(g *rdf.Graph, iri rdf.IRI) *Ontology {
	return &Ontology{g: g, iri: iri}
}

// Graph exposes the underlying RDF graph.
func (o *Ontology) Graph() *rdf.Graph { return o.g }

// Import merges another ontology's triples and records owl:imports.
func (o *Ontology) Import(other *Ontology) {
	o.g.MustAdd(rdf.T(o.iri, rdf.OWLImports, other.iri))
	o.g.Merge(other.g)
}

// --- terminology builders ---

// ClassBuilder incrementally attaches axioms to a class.
type ClassBuilder struct {
	o   *Ontology
	cls rdf.IRI
}

// Class declares (or re-opens) a class and returns a builder for it.
func (o *Ontology) Class(cls rdf.IRI) *ClassBuilder {
	o.g.MustAdd(rdf.T(cls, rdf.RDFType, rdf.OWLClass))
	o.g.MustAdd(rdf.T(cls, rdf.RDFType, rdf.RDFSClass))
	return &ClassBuilder{o: o, cls: cls}
}

// Sub asserts rdfs:subClassOf.
func (b *ClassBuilder) Sub(super rdf.IRI) *ClassBuilder {
	b.o.g.MustAdd(rdf.T(b.cls, rdf.RDFSSubClassOf, super))
	return b
}

// Label adds an rdfs:label in the given language.
func (b *ClassBuilder) Label(text, lang string) *ClassBuilder {
	b.o.g.MustAdd(rdf.T(b.cls, rdf.RDFSLabel, rdf.NewLangLiteral(text, lang)))
	return b
}

// Comment adds an English rdfs:comment.
func (b *ClassBuilder) Comment(text string) *ClassBuilder {
	b.o.g.MustAdd(rdf.T(b.cls, rdf.RDFSComment, rdf.NewLangLiteral(text, "en")))
	return b
}

// DisjointWith asserts owl:disjointWith (symmetric; one direction stored,
// the reasoner handles symmetry).
func (b *ClassBuilder) DisjointWith(other rdf.IRI) *ClassBuilder {
	b.o.g.MustAdd(rdf.T(b.cls, rdf.OWLDisjointWith, other))
	return b
}

// PropertyBuilder incrementally attaches axioms to a property.
type PropertyBuilder struct {
	o    *Ontology
	prop rdf.IRI
}

// ObjectProperty declares an object property.
func (o *Ontology) ObjectProperty(p rdf.IRI) *PropertyBuilder {
	o.g.MustAdd(rdf.T(p, rdf.RDFType, rdf.OWLObjectProperty))
	o.g.MustAdd(rdf.T(p, rdf.RDFType, rdf.RDFProperty))
	return &PropertyBuilder{o: o, prop: p}
}

// DatatypeProperty declares a datatype property.
func (o *Ontology) DatatypeProperty(p rdf.IRI) *PropertyBuilder {
	o.g.MustAdd(rdf.T(p, rdf.RDFType, rdf.OWLDatatypeProperty))
	o.g.MustAdd(rdf.T(p, rdf.RDFType, rdf.RDFProperty))
	return &PropertyBuilder{o: o, prop: p}
}

// Sub asserts rdfs:subPropertyOf.
func (b *PropertyBuilder) Sub(super rdf.IRI) *PropertyBuilder {
	b.o.g.MustAdd(rdf.T(b.prop, rdf.RDFSSubPropertyOf, super))
	return b
}

// Domain asserts rdfs:domain.
func (b *PropertyBuilder) Domain(cls rdf.IRI) *PropertyBuilder {
	b.o.g.MustAdd(rdf.T(b.prop, rdf.RDFSDomain, cls))
	return b
}

// Range asserts rdfs:range.
func (b *PropertyBuilder) Range(cls rdf.IRI) *PropertyBuilder {
	b.o.g.MustAdd(rdf.T(b.prop, rdf.RDFSRange, cls))
	return b
}

// Label adds an rdfs:label in the given language.
func (b *PropertyBuilder) Label(text, lang string) *PropertyBuilder {
	b.o.g.MustAdd(rdf.T(b.prop, rdf.RDFSLabel, rdf.NewLangLiteral(text, lang)))
	return b
}

// Comment adds an English rdfs:comment.
func (b *PropertyBuilder) Comment(text string) *PropertyBuilder {
	b.o.g.MustAdd(rdf.T(b.prop, rdf.RDFSComment, rdf.NewLangLiteral(text, "en")))
	return b
}

// Transitive marks the property owl:TransitiveProperty.
func (b *PropertyBuilder) Transitive() *PropertyBuilder {
	b.o.g.MustAdd(rdf.T(b.prop, rdf.RDFType, rdf.OWLTransitiveProperty))
	return b
}

// InverseOf asserts owl:inverseOf.
func (b *PropertyBuilder) InverseOf(other rdf.IRI) *PropertyBuilder {
	b.o.g.MustAdd(rdf.T(b.prop, rdf.OWLInverseOf, other))
	return b
}

// --- assertion helpers ---

// Individual asserts rdf:type for an individual.
func (o *Ontology) Individual(ind rdf.IRI, cls rdf.IRI) {
	o.g.MustAdd(rdf.T(ind, rdf.RDFType, cls))
}

// MustAssert adds a statement, panicking on malformed input.
func (o *Ontology) MustAssert(s, p, obj rdf.Term) {
	o.g.MustAdd(rdf.T(s, p, obj))
}

// --- schema queries ---

// Classes returns every declared class IRI in deterministic order.
func (o *Ontology) Classes() []rdf.IRI {
	return o.typedIRIs(rdf.OWLClass, rdf.RDFSClass)
}

// Properties returns every declared property IRI in deterministic order.
func (o *Ontology) Properties() []rdf.IRI {
	return o.typedIRIs(rdf.OWLObjectProperty, rdf.OWLDatatypeProperty, rdf.RDFProperty)
}

func (o *Ontology) typedIRIs(types ...rdf.IRI) []rdf.IRI {
	seen := make(map[rdf.IRI]bool)
	for _, ty := range types {
		for _, s := range o.g.Subjects(rdf.RDFType, ty) {
			if iri, ok := s.(rdf.IRI); ok {
				seen[iri] = true
			}
		}
	}
	out := make([]rdf.IRI, 0, len(seen))
	for iri := range seen {
		out = append(out, iri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsClass reports whether the IRI is declared as a class.
func (o *Ontology) IsClass(c rdf.IRI) bool {
	return o.g.Has(rdf.T(c, rdf.RDFType, rdf.OWLClass)) ||
		o.g.Has(rdf.T(c, rdf.RDFType, rdf.RDFSClass))
}

// SuperClasses returns the transitive closure of rdfs:subClassOf for cls
// (not including cls itself), computed on demand — it does not require a
// materialized closure.
func (o *Ontology) SuperClasses(cls rdf.IRI) []rdf.IRI {
	return o.closure(cls, false)
}

// SubClasses returns the transitive closure of subclasses of cls.
func (o *Ontology) SubClasses(cls rdf.IRI) []rdf.IRI {
	return o.closure(cls, true)
}

// closure walks rdfs:subClassOf edges; inverse=true walks from object to
// subject (i.e. descendants).
func (o *Ontology) closure(start rdf.IRI, inverse bool) []rdf.IRI {
	visited := map[rdf.IRI]bool{start: true}
	frontier := []rdf.IRI{start}
	var out []rdf.IRI
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		var nexts []rdf.Term
		if inverse {
			nexts = o.g.Subjects(rdf.RDFSSubClassOf, cur)
		} else {
			nexts = o.g.Objects(cur, rdf.RDFSSubClassOf)
		}
		for _, nt := range nexts {
			n, ok := nt.(rdf.IRI)
			if !ok || visited[n] {
				continue
			}
			visited[n] = true
			out = append(out, n)
			frontier = append(frontier, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsSubClassOf reports whether sub is (transitively) a subclass of super.
// A class is a subclass of itself.
func (o *Ontology) IsSubClassOf(sub, super rdf.IRI) bool {
	if sub == super {
		return true
	}
	for _, c := range o.SuperClasses(sub) {
		if c == super {
			return true
		}
	}
	return false
}

// Stats summarizes the ontology for reporting (EXP-F1).
type Stats struct {
	Classes     int
	Properties  int
	Individuals int
	Triples     int
	SubClassAx  int
	DomainAx    int
	RangeAx     int
}

// Stats computes summary statistics over the current graph.
func (o *Ontology) Stats() Stats {
	classes := o.Classes()
	classSet := make(map[rdf.IRI]bool, len(classes))
	for _, c := range classes {
		classSet[c] = true
	}
	props := o.Properties()
	propSet := make(map[rdf.IRI]bool, len(props))
	for _, p := range props {
		propSet[p] = true
	}
	individuals := make(map[string]bool)
	o.g.ForEachMatch(nil, rdf.RDFType, nil, func(t rdf.Triple) bool {
		if iri, ok := t.S.(rdf.IRI); ok && (classSet[iri] || propSet[iri]) {
			return true
		}
		if obj, ok := t.O.(rdf.IRI); ok && classSet[obj] {
			individuals[t.S.Key()] = true
		}
		return true
	})
	return Stats{
		Classes:     len(classes),
		Properties:  len(props),
		Individuals: len(individuals),
		Triples:     o.g.Len(),
		SubClassAx:  o.g.Count(nil, rdf.RDFSSubClassOf, nil),
		DomainAx:    o.g.Count(nil, rdf.RDFSDomain, nil),
		RangeAx:     o.g.Count(nil, rdf.RDFSRange, nil),
	}
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("classes=%d properties=%d individuals=%d triples=%d subClassOf=%d domain=%d range=%d",
		s.Classes, s.Properties, s.Individuals, s.Triples, s.SubClassAx, s.DomainAx, s.RangeAx)
}
