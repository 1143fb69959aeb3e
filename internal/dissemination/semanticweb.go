package dissemination

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/forecast"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// SemanticWeb is the semantic-web output channel: bulletins are
// materialized as RDF and served over HTTP —
//
//	GET /bulletins          → Turtle document of all bulletins
//	GET /sparql?query=...   → SELECT/ASK results as text
//	GET /health             → liveness probe
//
// Bulletins arrive two ways: Deliver, the Channel an in-process hub
// calls, keys each bulletin by a delivery sequence; Materialize keys it
// by the broker offset of its bulletin/<district> record, which is how
// dews.System builds its graph as a view of the event log.
type SemanticWeb struct {
	// mu guards seq only; the graph is internally synchronized and
	// queries run on lock-free snapshots of it.
	mu    sync.Mutex
	graph *rdf.Graph
	// write commits a bulletin's triples: the graph's own AddAll for the
	// in-memory channel, or the persistent store's durable AddAll.
	write func(...rdf.Triple) error
	seq   uint64
}

var (
	_ Channel      = (*SemanticWeb)(nil)
	_ http.Handler = (*SemanticWeb)(nil)
)

// NewSemanticWeb returns an empty channel.
func NewSemanticWeb() *SemanticWeb {
	g := rdf.NewGraph()
	return &SemanticWeb{graph: g, write: g.AddAll}
}

// NewPersistentSemanticWeb returns a channel whose bulletins are
// durable: reads serve the store's graph, writes go through its WAL.
// The bulletin sequence resumes from the recovered graph, so IRIs
// minted after a restart never collide with persisted bulletins.
func NewPersistentSemanticWeb(graph *rdf.Graph, write func(...rdf.Triple) error) *SemanticWeb {
	return &SemanticWeb{
		graph: graph,
		write: write,
		// Each Deliver asserts exactly one rdf:type Bulletin triple, so
		// the class count is the number of sequence values consumed.
		seq: uint64(graph.Count(nil, rdf.RDFType, BulletinClass)),
	}
}

// Name implements Channel.
func (*SemanticWeb) Name() string { return "semantic-web" }

// Bulletin vocabulary (within the drought namespace). BulletinClass is
// exported for the offline graph oracle, which counts typed bulletin
// nodes.
var (
	BulletinClass = rdf.NSDEWS.IRI("Bulletin")
	probProp      = rdf.NSDEWS.IRI("probability")
	bandProp      = rdf.NSDEWS.IRI("dviBand")
	leadProp      = rdf.NSDEWS.IRI("leadDays")
	regionProp    = rdf.NSDEWS.IRI("affectsRegion")
	issuedProp    = rdf.NSDEWS.IRI("issued")
)

// BulletinTriples is how many triples one bulletin asserts: type,
// region, probability, band, lead and issue time.
const BulletinTriples = 6

// bulletinNode mints the IRI bulletin/<district>/<key>. The key is the
// broker offset of the bulletin record for Materialize, and the
// channel's delivery sequence for Deliver.
func bulletinNode(district string, key uint64) rdf.IRI {
	return rdf.NSOBS.IRI("bulletin/" + district + "/" + strconv.FormatUint(key, 10))
}

// put writes b's BulletinTriples triples under node as one atomic batch,
// so a concurrent query snapshot sees either the whole bulletin or none
// of it.
func (s *SemanticWeb) put(node rdf.IRI, b forecast.Bulletin) error {
	return s.write(
		rdf.T(node, rdf.RDFType, BulletinClass),
		rdf.T(node, regionProp, rdf.NSGEO.IRI(b.District)),
		rdf.T(node, probProp, rdf.NewFloat(b.Probability)),
		rdf.T(node, bandProp, rdf.NewLiteral(b.Band.String())),
		rdf.T(node, leadProp, rdf.NewInt(int64(b.LeadDays))),
		rdf.T(node, issuedProp,
			rdf.NewTypedLiteral(b.Issued.UTC().Format(time.RFC3339), rdf.XSDDateTime)),
	)
}

// Deliver implements Channel for in-process hubs: the bulletin becomes
// RDF under the channel's next sequence number.
func (s *SemanticWeb) Deliver(b forecast.Bulletin) error {
	if err := b.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	return s.put(bulletinNode(b.District, seq), b)
}

// Materialize asserts the bulletin the broker recorded at offset. The
// IRI is keyed by the offset, so materializing the same record again
// (replayed from the log, or a retained bulletin offered to a new
// subscription) adds nothing.
func (s *SemanticWeb) Materialize(offset uint64, b forecast.Bulletin) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return s.put(bulletinNode(b.District, offset), b)
}

// BulletinsFrom returns the bulletin nodes keyed at offset from or
// later. Against a log recovered after a crash, from = NextOffset names
// the orphans: bulletins whose records were lost with the log's
// unsynced tail.
func (s *SemanticWeb) BulletinsFrom(from uint64) []rdf.Term {
	var nodes []rdf.Term
	s.graph.ForEachMatch(nil, rdf.RDFType, BulletinClass, func(t rdf.Triple) bool {
		if iri, ok := t.S.(rdf.IRI); ok {
			key, err := strconv.ParseUint(string(iri[strings.LastIndexByte(string(iri), '/')+1:]), 10, 64)
			if err == nil && key >= from {
				nodes = append(nodes, t.S)
			}
		}
		return true
	})
	return nodes
}

// Graph returns a snapshot of the bulletin graph.
func (s *SemanticWeb) Graph() *rdf.Graph {
	return s.graph.Clone()
}

// TripleCount returns the current size of the bulletin graph (cheap:
// no clone, no scan).
func (s *SemanticWeb) TripleCount() int { return s.graph.Len() }

// ServeHTTP implements http.Handler.
func (s *SemanticWeb) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/health":
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case "/bulletins":
		w.Header().Set("Content-Type", "text/turtle; charset=utf-8")
		// Serialize a stable clone: WriteTurtle reads the graph twice
		// (prefix scan, then triples), and a Deliver landing in between
		// could otherwise introduce prefixes the header never declared.
		if err := rdf.WriteTurtle(w, s.graph.Clone(), nil); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case "/sparql":
		query := r.URL.Query().Get("query")
		if query == "" {
			http.Error(w, "missing ?query=", http.StatusBadRequest)
			return
		}
		// Evaluate against an immutable snapshot: a slow query holds no
		// lock, so concurrent Deliver calls from the dissemination hub
		// are never stalled behind it.
		engine := sparql.NewSnapshotEngine(s.graph.Snapshot())
		res, err := engine.Query(query)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch res := res.(type) {
		case *sparql.Solutions:
			fmt.Fprint(w, res.String())
		case bool:
			fmt.Fprintln(w, res)
		case *rdf.Graph:
			if err := rdf.WriteTurtle(w, res, nil); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	default:
		http.NotFound(w, r)
	}
}
