package core

import (
	"sort"
	"sync"

	"repro/internal/cep"
	"repro/internal/mediator"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Segment is the ontology segment layer: unified ontology + reasoner
// output, data graph, query engine, annotator and per-key CEP engines.
type Segment struct {
	onto *ontology.Ontology
	// data holds assertional knowledge produced at run time
	// (observations, inferred events); the ontology graph is merged in so
	// queries see both.
	data      *rdf.Graph
	engine    *sparql.Engine
	annotator *mediator.Annotator

	rules []cep.Rule

	mu       sync.Mutex
	cepByKey map[string]*cep.Engine
	// cepLocks serializes Process calls per shard: the engine itself is
	// single-goroutine, so overlapping ingest cycles must take the
	// shard's lock before feeding it.
	cepLocks map[string]*sync.Mutex
}

// NewSegment builds the layer around a materialized ontology and a CEP
// rule set. The data graph starts as a clone of the ontology graph so
// SPARQL queries span schema and data.
func NewSegment(o *ontology.Ontology, rules []cep.Rule) (*Segment, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	data := o.Graph().Clone()
	s := &Segment{
		onto:      o,
		data:      data,
		engine:    sparql.NewEngine(data),
		annotator: mediator.NewAnnotator(o),
		rules:     rules,
		cepByKey:  make(map[string]*cep.Engine),
		cepLocks:  make(map[string]*sync.Mutex),
	}
	mediator.SeedAlignments(s.annotator.Registry())
	return s, nil
}

// Ontology exposes the unified ontology.
func (s *Segment) Ontology() *ontology.Ontology { return s.onto }

// Annotator exposes the mediator.
func (s *Segment) Annotator() *mediator.Annotator { return s.annotator }

// Graph exposes the combined schema+data graph.
func (s *Segment) Graph() *rdf.Graph { return s.data }

// Query runs a SPARQL query over schema+data.
func (s *Segment) Query(src string) (any, error) { return s.engine.Query(src) }

// Select runs a SELECT query.
func (s *Segment) Select(src string) (*sparql.Solutions, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.engine.Select(q)
}

// CEPEngine returns (creating on first use) the engine shard for a
// partition key (district). Each shard gets a fresh compilation of the
// configured rule set. Callers that may overlap with other ingest
// cycles must hold the shard's lock (cepShardLock) while processing.
func (s *Segment) CEPEngine(key string) (*cep.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cepByKey[key]; ok {
		return e, nil
	}
	e, err := cep.NewEngine(s.rules)
	if err != nil {
		return nil, err
	}
	s.cepByKey[key] = e
	s.cepLocks[key] = &sync.Mutex{}
	return e, nil
}

// cepShardLock returns the mutex serializing Process calls on a shard.
func (s *Segment) cepShardLock(key string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.cepLocks[key]
	if !ok {
		l = &sync.Mutex{}
		s.cepLocks[key] = l
	}
	return l
}

// CEPKeys lists the active shards in sorted order.
func (s *Segment) CEPKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.cepByKey))
	for k := range s.cepByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
