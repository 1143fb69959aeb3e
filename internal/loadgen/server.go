package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dissemination"
	"repro/internal/eventlog"
	"repro/internal/forecast"
	"repro/internal/gateway"
	"repro/internal/graphlog"
	"repro/internal/rdf"
)

// Bulletin vocabulary — the same IRIs dissemination.SemanticWeb
// asserts, so the SPARQL load mix reads real bulletin shapes.
var (
	bulletinClass = rdf.NSDEWS.IRI("Bulletin")
	probProp      = rdf.NSDEWS.IRI("probability")
	bandProp      = rdf.NSDEWS.IRI("dviBand")
	leadProp      = rdf.NSDEWS.IRI("leadDays")
	regionProp    = rdf.NSDEWS.IRI("affectsRegion")
	issuedProp    = rdf.NSDEWS.IRI("issued")
)

// BulletinTriples is how many triples one materialized bulletin
// asserts; the graph-parity oracle multiplies by it.
const BulletinTriples = 6

// ServerConfig configures the harness server stack.
type ServerConfig struct {
	// LogDir is the durable event log directory (required: chaos
	// recovery is the point of this server).
	LogDir string
	// GraphDir is the persistent bulletin-graph directory (required).
	GraphDir string
	// DefaultBuffer / MaxBuffer tune SSE queue capacities (0 = gateway
	// defaults).
	DefaultBuffer int
	MaxBuffer     int
	// CheckpointInterval is the graph store's snapshot cadence (0 =
	// graphlog default).
	CheckpointInterval time.Duration
}

// Server is the self-contained gateway stack cmd/dewsload serves (and
// chaos-kills): a broker writing through a durable event log, the HTTP
// gateway over it, and a persistent bulletin graph materialized from
// the log. The event log is the source of truth for bulletins: every
// bulletin publish is materialized into RDF keyed by its durable
// offset, and startup replays the log through the same idempotent
// materializer, so crash recovery converges the graph to exactly the
// bulletins the recovered log holds (recovery-equals-never-crashed).
type Server struct {
	Broker *core.Broker
	Log    *eventlog.Log
	Store  *graphlog.Store
	GW     *gateway.Gateway

	web *dissemination.SemanticWeb
	mux *http.ServeMux

	bulletinSub *core.Subscription

	// materialized counts bulletins committed to the graph by this
	// process (replayed + live); decodeErrs counts bulletin publishes
	// that did not decode as bulletins.
	materialized atomic.Int64
	decodeErrs   atomic.Int64
	orphansSwept atomic.Int64
}

// NewServer opens the durable stores, recovers, reconciles the graph
// against the log, and wires the HTTP stack.
func NewServer(cfg ServerConfig) (srv *Server, err error) {
	if cfg.LogDir == "" || cfg.GraphDir == "" {
		return nil, fmt.Errorf("loadgen: server needs LogDir and GraphDir")
	}
	broker := core.NewBroker()
	broker.SetRetainedLimit(65536)

	elog, err := eventlog.Open(eventlog.Config{Dir: cfg.LogDir})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			elog.Close()
		}
	}()
	if _, err = broker.AttachLog(elog); err != nil {
		return nil, err
	}

	store, err := graphlog.Open(graphlog.Config{
		Dir:                cfg.GraphDir,
		CheckpointInterval: cfg.CheckpointInterval,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			store.Close()
		}
	}()

	s := &Server{Broker: broker, Log: elog, Store: store}
	s.web = dissemination.NewPersistentSemanticWeb(store.Graph(), store.AddAll)

	// Reconcile the materialized view with the recovered log before
	// serving: drop graph bulletins the crashed log no longer knows
	// (committed to the graph WAL in the instants before a kill that
	// the event log's batched fsync lost), then replay every surviving
	// bulletin record through the idempotent materializer.
	if err = s.reconcile(); err != nil {
		return nil, err
	}

	// Live path: bulletins flow through a broker handler subscription.
	s.bulletinSub, err = broker.SubscribeHandler("bulletin/#", 8192, core.DropOldest, func(m core.Message) {
		if merr := s.materialize(m); merr != nil {
			s.decodeErrs.Add(1)
		}
	})
	if err != nil {
		return nil, err
	}

	gw, err := gateway.New(gateway.Config{
		Broker:        broker,
		DefaultBuffer: cfg.DefaultBuffer,
		MaxBuffer:     cfg.MaxBuffer,
		Extra: func() map[string]any {
			return map[string]any{
				"semweb": map[string]any{
					"bulletin_triples": s.web.TripleCount(),
					"store":            s.Store.Stats(),
				},
				"loadgen": map[string]any{
					"bulletins_materialized": s.materialized.Load(),
					"bulletin_decode_errors": s.decodeErrs.Load(),
					"orphans_swept":          s.orphansSwept.Load(),
				},
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s.GW = gw

	mux := http.NewServeMux()
	mux.Handle("/", gw)
	mux.Handle("/semweb/", http.StripPrefix("/semweb", s.web))
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP entry point (gateway at the root, semantic
// web under /semweb/).
func (s *Server) Handler() http.Handler { return s.mux }

// MaterializedBulletins returns how many bulletin commits this process
// has performed (startup replay + live).
func (s *Server) MaterializedBulletins() int64 { return s.materialized.Load() }

// Close shuts the stack down cleanly: gateway streams get goodbyes,
// the dispatcher drains, and both durable stores flush and close — so
// a clean shutdown loses nothing (the chaos oracles rely on this when
// they open the directories offline afterwards).
func (s *Server) Close() error {
	_ = s.GW.Close()
	s.Broker.DrainDispatch()
	s.Broker.StopDispatch()
	var first error
	if err := s.Log.Close(); err != nil {
		first = err
	}
	if err := s.Store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// bulletinNode mints the offset-keyed bulletin IRI. Offsets are unique
// and durable, so materialization is idempotent: replaying the same
// record re-asserts the same six triples into a set.
func bulletinNode(district string, offset uint64) rdf.IRI {
	return rdf.NSOBS.IRI(fmt.Sprintf("bulletin/%s/%d", district, offset))
}

// materialize commits one bulletin message to the graph.
func (s *Server) materialize(m core.Message) error {
	b, err := bulletinOf(m)
	if err != nil {
		return err
	}
	node := bulletinNode(b.District, m.Offset)
	if err := s.Store.AddAll(
		rdf.T(node, rdf.RDFType, bulletinClass),
		rdf.T(node, regionProp, rdf.NSGEO.IRI(b.District)),
		rdf.T(node, probProp, rdf.NewFloat(b.Probability)),
		rdf.T(node, bandProp, rdf.NewLiteral(b.Band.String())),
		rdf.T(node, leadProp, rdf.NewInt(int64(b.LeadDays))),
		rdf.T(node, issuedProp,
			rdf.NewTypedLiteral(b.Issued.UTC().Format(time.RFC3339), rdf.XSDDateTime)),
	); err != nil {
		return err
	}
	s.materialized.Add(1)
	return nil
}

// bulletinOf decodes a published message back into a bulletin. Remote
// publishes arrive as generic JSON values, so decode via re-marshal.
func bulletinOf(m core.Message) (forecast.Bulletin, error) {
	var b forecast.Bulletin
	raw := m.PayloadJSON()
	if len(raw) == 0 {
		return b, fmt.Errorf("loadgen: bulletin message without payload")
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, err
	}
	if err := b.Validate(); err != nil {
		return b, err
	}
	return b, nil
}

// reconcile converges the persistent graph to the recovered event log.
//
// Sweep: a bulletin whose offset is at or past the recovered log's next
// offset was lost with the crashed tail — its graph triples are
// orphans; remove them. (The log recovers a contiguous prefix, so
// offset >= NextOffset is exactly "lost".)
//
// Replay: every bulletin record the log did keep flows through the
// idempotent materializer, re-asserting triples the graph WAL may not
// have persisted. No-op re-adds never hit the graph WAL.
func (s *Server) reconcile() error {
	next := s.Log.NextOffset()
	type orphan struct{ node rdf.Term }
	var orphans []orphan
	g := s.Store.Graph()
	g.ForEachMatch(nil, rdf.RDFType, bulletinClass, func(t rdf.Triple) bool {
		iri, ok := t.S.(rdf.IRI)
		if !ok {
			return true
		}
		// IRI shape: .../bulletin/<district>/<offset>
		idx := strings.LastIndexByte(string(iri), '/')
		if idx < 0 {
			return true
		}
		off, err := strconv.ParseUint(string(iri)[idx+1:], 10, 64)
		if err != nil {
			return true
		}
		if off >= next {
			orphans = append(orphans, orphan{node: t.S})
		}
		return true
	})
	for _, o := range orphans {
		for _, t := range g.Match(o.node, nil, nil) {
			if _, err := s.Store.Remove(t); err != nil {
				return err
			}
		}
		s.orphansSwept.Add(1)
	}
	_, err := s.Broker.ReplayFrom(s.Log.OldestOffset(), "bulletin/#", func(m core.Message) error {
		return s.materialize(m)
	})
	return err
}
