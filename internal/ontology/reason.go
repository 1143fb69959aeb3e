package ontology

import (
	"fmt"

	"repro/internal/rdf"
)

// Reasoner materializes the entailments of an RDFS/OWL-subset rule set
// into the ontology graph by forward chaining to fixpoint. The rule set
// covers what the middleware needs to classify observed properties and
// drive inference:
//
//	rdfs5   subPropertyOf transitivity
//	rdfs7   property value inheritance via subPropertyOf
//	rdfs2   rdfs:domain typing
//	rdfs3   rdfs:range typing (IRI/blank objects only)
//	rdfs9   type inheritance via subClassOf
//	rdfs11  subClassOf transitivity
//	owl-inv owl:inverseOf value mirroring
//	owl-sym owl:SymmetricProperty mirroring
//	owl-trn owl:TransitiveProperty closure
//	owl-eqc owl:equivalentClass ⇒ mutual subClassOf
//	owl-dis owl:disjointWith symmetry
//	owl-sam owl:sameAs symmetry + transitivity (no full substitution)
//
// Reasoning is monotone: the closure is a superset of the input and a
// second run adds nothing (idempotence). Both properties are covered by
// property-based tests.
type Reasoner struct {
	// MaxRounds bounds the fixpoint loop as a safety valve; 0 means the
	// default (64). The rule set is monotone so the loop always
	// terminates, but a bound turns a potential logic bug into an error
	// instead of a hang.
	MaxRounds int
}

// Result reports what a Materialize run did.
type Result struct {
	// Added is the number of entailed triples inserted.
	Added int
	// Rounds is the number of fixpoint iterations executed.
	Rounds int
}

// Materialize computes the entailment closure of o's graph in place.
func (r Reasoner) Materialize(o *Ontology) (Result, error) {
	g := o.Graph()
	maxRounds := r.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	var res Result
	for round := 0; ; round++ {
		if round >= maxRounds {
			return res, fmt.Errorf("ontology: reasoner did not reach fixpoint in %d rounds", maxRounds)
		}
		added := r.round(g)
		res.Rounds++
		res.Added += added
		if added == 0 {
			return res, nil
		}
	}
}

// round applies every rule once and returns the number of new triples.
// All rules read from one immutable snapshot — candidate checks and the
// nested pattern scans are lock-free and cannot observe the writes the
// round itself buffers.
func (r Reasoner) round(g *rdf.Graph) int {
	snap := g.Snapshot()
	var pending []rdf.Triple
	add := func(t rdf.Triple) {
		if t.Validate() == nil && !snap.Has(t) {
			pending = append(pending, t)
		}
	}

	r.ruleSubClassTransitivity(snap, add)
	r.ruleEquivalentClass(snap, add)
	r.ruleSubPropertyTransitivity(snap, add)
	r.ruleTypeInheritance(snap, add)
	r.rulePropertyInheritance(snap, add)
	r.ruleDomain(snap, add)
	r.ruleRange(snap, add)
	r.ruleInverse(snap, add)
	r.ruleSymmetric(snap, add)
	r.ruleTransitiveProps(snap, add)
	r.ruleDisjointSymmetry(snap, add)
	r.ruleSameAs(snap, add)

	n := 0
	for _, t := range pending {
		if !g.Has(t) {
			g.MustAdd(t)
			n++
		}
	}
	return n
}

// rdfs11: (a subClassOf b), (b subClassOf c) ⇒ (a subClassOf c).
func (Reasoner) ruleSubClassTransitivity(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFSSubClassOf, nil, func(t1 rdf.Triple) bool {
		g.ForEachMatch(t1.O, rdf.RDFSSubClassOf, nil, func(t2 rdf.Triple) bool {
			if !rdf.Equal(t1.S, t2.O) {
				add(rdf.T(t1.S, rdf.RDFSSubClassOf, t2.O))
			}
			return true
		})
		return true
	})
}

// owl:equivalentClass ⇒ subClassOf both ways (and symmetry of the
// equivalence itself).
func (Reasoner) ruleEquivalentClass(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.OWLEquivalentClass, nil, func(t rdf.Triple) bool {
		add(rdf.T(t.S, rdf.RDFSSubClassOf, t.O))
		if o, ok := t.O.(rdf.IRI); ok {
			add(rdf.T(o, rdf.RDFSSubClassOf, t.S))
			add(rdf.T(o, rdf.OWLEquivalentClass, t.S))
		}
		return true
	})
}

// rdfs5: subPropertyOf transitivity.
func (Reasoner) ruleSubPropertyTransitivity(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFSSubPropertyOf, nil, func(t1 rdf.Triple) bool {
		g.ForEachMatch(t1.O, rdf.RDFSSubPropertyOf, nil, func(t2 rdf.Triple) bool {
			if !rdf.Equal(t1.S, t2.O) {
				add(rdf.T(t1.S, rdf.RDFSSubPropertyOf, t2.O))
			}
			return true
		})
		return true
	})
}

// rdfs9: (x type c), (c subClassOf d) ⇒ (x type d).
func (Reasoner) ruleTypeInheritance(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFType, nil, func(t1 rdf.Triple) bool {
		g.ForEachMatch(t1.O, rdf.RDFSSubClassOf, nil, func(t2 rdf.Triple) bool {
			add(rdf.T(t1.S, rdf.RDFType, t2.O))
			return true
		})
		return true
	})
}

// rdfs7: (x p y), (p subPropertyOf q) ⇒ (x q y).
func (Reasoner) rulePropertyInheritance(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFSSubPropertyOf, nil, func(sp rdf.Triple) bool {
		p, ok1 := sp.S.(rdf.IRI)
		q, ok2 := sp.O.(rdf.IRI)
		if !ok1 || !ok2 || p == q {
			return true
		}
		g.ForEachMatch(nil, p, nil, func(t rdf.Triple) bool {
			add(rdf.T(t.S, q, t.O))
			return true
		})
		return true
	})
}

// rdfs2: (p domain c), (x p y) ⇒ (x type c).
func (Reasoner) ruleDomain(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFSDomain, nil, func(d rdf.Triple) bool {
		p, ok := d.S.(rdf.IRI)
		if !ok {
			return true
		}
		g.ForEachMatch(nil, p, nil, func(t rdf.Triple) bool {
			add(rdf.T(t.S, rdf.RDFType, d.O))
			return true
		})
		return true
	})
}

// rdfs3: (p range c), (x p y) ⇒ (y type c) — only when y is not a literal.
func (Reasoner) ruleRange(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFSRange, nil, func(rg rdf.Triple) bool {
		p, ok := rg.S.(rdf.IRI)
		if !ok {
			return true
		}
		g.ForEachMatch(nil, p, nil, func(t rdf.Triple) bool {
			if t.O.Kind() != rdf.KindLiteral {
				add(rdf.T(t.O, rdf.RDFType, rg.O))
			}
			return true
		})
		return true
	})
}

// owl:inverseOf: (p inverseOf q), (x p y) ⇒ (y q x), and vice versa.
func (Reasoner) ruleInverse(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.OWLInverseOf, nil, func(iv rdf.Triple) bool {
		p, ok1 := iv.S.(rdf.IRI)
		q, ok2 := iv.O.(rdf.IRI)
		if !ok1 || !ok2 {
			return true
		}
		mirror := func(from, to rdf.IRI) {
			g.ForEachMatch(nil, from, nil, func(t rdf.Triple) bool {
				if t.O.Kind() != rdf.KindLiteral {
					add(rdf.T(t.O, to, t.S))
				}
				return true
			})
		}
		mirror(p, q)
		mirror(q, p)
		return true
	})
}

// owl:SymmetricProperty: (p type Symmetric), (x p y) ⇒ (y p x).
func (Reasoner) ruleSymmetric(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFType, rdf.OWLSymmetricProperty, func(d rdf.Triple) bool {
		p, ok := d.S.(rdf.IRI)
		if !ok {
			return true
		}
		g.ForEachMatch(nil, p, nil, func(t rdf.Triple) bool {
			if t.O.Kind() != rdf.KindLiteral {
				add(rdf.T(t.O, p, t.S))
			}
			return true
		})
		return true
	})
}

// owl:TransitiveProperty: (x p y), (y p z) ⇒ (x p z).
func (Reasoner) ruleTransitiveProps(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.RDFType, rdf.OWLTransitiveProperty, func(d rdf.Triple) bool {
		p, ok := d.S.(rdf.IRI)
		if !ok {
			return true
		}
		g.ForEachMatch(nil, p, nil, func(t1 rdf.Triple) bool {
			g.ForEachMatch(t1.O, p, nil, func(t2 rdf.Triple) bool {
				if !rdf.Equal(t1.S, t2.O) {
					add(rdf.T(t1.S, p, t2.O))
				}
				return true
			})
			return true
		})
		return true
	})
}

// owl:disjointWith symmetry.
func (Reasoner) ruleDisjointSymmetry(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.OWLDisjointWith, nil, func(t rdf.Triple) bool {
		if o, ok := t.O.(rdf.IRI); ok {
			add(rdf.T(o, rdf.OWLDisjointWith, t.S))
		}
		return true
	})
}

// owl:sameAs symmetry and transitivity. Full individual substitution
// (copying every statement about an individual onto its aliases) is out
// of scope; type propagation across sameAs is included since
// classification depends on it.
func (Reasoner) ruleSameAs(g *rdf.Snapshot, add func(rdf.Triple)) {
	g.ForEachMatch(nil, rdf.OWLSameAs, nil, func(t1 rdf.Triple) bool {
		if o, ok := t1.O.(rdf.IRI); ok {
			add(rdf.T(o, rdf.OWLSameAs, t1.S))
		}
		g.ForEachMatch(t1.O, rdf.OWLSameAs, nil, func(t2 rdf.Triple) bool {
			if !rdf.Equal(t1.S, t2.O) {
				add(rdf.T(t1.S, rdf.OWLSameAs, t2.O))
			}
			return true
		})
		// Propagate types across sameAs.
		g.ForEachMatch(t1.O, rdf.RDFType, nil, func(t2 rdf.Triple) bool {
			add(rdf.T(t1.S, rdf.RDFType, t2.O))
			return true
		})
		g.ForEachMatch(t1.S, rdf.RDFType, nil, func(t2 rdf.Triple) bool {
			if o, ok := t1.O.(rdf.IRI); ok {
				add(rdf.T(o, rdf.RDFType, t2.O))
			}
			return true
		})
		return true
	})
}
