package dews

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cep"
	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/dissemination"
	"repro/internal/eventlog"
	"repro/internal/forecast"
	"repro/internal/gateway"
	"repro/internal/graphlog"
	"repro/internal/ik"
	"repro/internal/ontology/drought"
	"repro/internal/ontology/ssn"
	"repro/internal/wsn"
)

// SensorRules is the sensor-derived CEP rule set of the DEWS: thresholds
// on the unified observed properties, plus the chained drought-warning
// pattern over emitted processes (the paper's process→event chain).
const SensorRules = `
RULE rainfall-deficit
WHEN avg(Rainfall) < 0.9 OVER 30d
COOLDOWN 14d
EMIT RainfallDeficit SEVERITY watch CONFIDENCE 0.8 SOURCE sensor

RULE soil-moisture-decline
WHEN avg(SoilMoisture) < 0.16 OVER 21d
COOLDOWN 14d
EMIT SoilMoistureDecline SEVERITY warning CONFIDENCE 0.8 SOURCE sensor

RULE heat-wave
WHEN min(AirTemperature) > 27 OVER 5d
COOLDOWN 10d
EMIT HeatWave SEVERITY watch CONFIDENCE 0.7 SOURCE sensor

RULE vegetation-stress
WHEN avg(NDVI) < 0.25 OVER 30d
COOLDOWN 21d
EMIT VegetationStress SEVERITY warning CONFIDENCE 0.75 SOURCE sensor

RULE drought-pattern
WHEN SEQ(RainfallDeficit, SoilMoistureDecline) WITHIN 60d
COOLDOWN 30d
EMIT DroughtWarning SEVERITY severe CONFIDENCE 0.85 SOURCE fusion
`

// Config configures a DEWS simulation run.
type Config struct {
	// Seed drives every random component.
	Seed int64
	// Districts to simulate (default: all five Free State districts).
	Districts []string
	// NodesPerDistrict sizes the WSN (default 4).
	NodesPerDistrict int
	// Years is the total simulated span (default 12).
	Years int
	// TrainYears is the climatology/calibration prefix (default 6).
	TrainYears int
	// LeadDays is the forecast horizon (default 30).
	LeadDays int
	// Informants per district (default 8).
	Informants int
	// IKReportRate is the informant attention rate (default 0.02).
	IKReportRate float64
	// LinkLossRate is the radio loss probability (default 0.15).
	LinkLossRate float64
	// DecisionThreshold converts probabilities to yes/no (default 0.5).
	DecisionThreshold float64
	// RecordIssues retains every verified (features, outcome) pair in the
	// Result so ablations can re-evaluate forecaster variants offline
	// without re-running the simulation.
	RecordIssues bool
	// FetchParallelism bounds concurrent per-source downloads in the
	// protocol layer (0 keeps the layer's default; 1 forces serial).
	FetchParallelism int
	// LogDir, when set, makes the broker durable: every published
	// message is written through to a segmented event log in this
	// directory, retained topics and the offset sequence are recovered
	// from it on startup, and SSE clients can resume by offset.
	LogDir string
	// LogSegmentBytes rotates log segments at this size (0 = eventlog
	// default, 8MiB).
	LogSegmentBytes int64
	// LogRetain drops sealed log segments once their newest write is
	// older than this (0 = keep forever).
	LogRetain time.Duration
	// GraphDir, when set, makes the semantic-web bulletin graph durable:
	// every bulletin's triples are committed through a graph write-ahead
	// log in this directory, periodically checkpointed into binary
	// snapshot files, and the graph is recovered (snapshot + WAL tail)
	// and then repaired against the event log on startup. It requires
	// LogDir: bulletin IRIs are keyed by log offset, and without a log
	// offsets restart at 1 in every process.
	GraphDir string
	// GraphCheckpointInterval is how often the graph store considers
	// writing a snapshot and truncating its WAL (0 = graphlog default,
	// 15s; negative disables background checkpointing).
	GraphCheckpointInterval time.Duration
}

func (c *Config) applyDefaults() {
	if len(c.Districts) == 0 {
		for _, d := range drought.Districts {
			c.Districts = append(c.Districts, strings.ToLower(d.LocalName()))
		}
	}
	if c.NodesPerDistrict == 0 {
		c.NodesPerDistrict = 4
	}
	if c.Years == 0 {
		c.Years = 12
	}
	if c.TrainYears == 0 {
		c.TrainYears = 6
	}
	if c.LeadDays == 0 {
		c.LeadDays = 30
	}
	if c.Informants == 0 {
		c.Informants = 8
	}
	if c.IKReportRate == 0 {
		c.IKReportRate = 0.02
	}
	if c.LinkLossRate == 0 {
		c.LinkLossRate = 0.15
	}
	if c.DecisionThreshold == 0 {
		c.DecisionThreshold = 0.5
	}
}

// Validate rejects nonsense configurations.
func (c Config) Validate() error {
	if c.TrainYears >= c.Years {
		return fmt.Errorf("dews: TrainYears %d must be below Years %d", c.TrainYears, c.Years)
	}
	if c.LeadDays < 1 {
		return fmt.Errorf("dews: LeadDays must be positive")
	}
	if c.GraphDir != "" && c.LogDir == "" {
		return fmt.Errorf("dews: GraphDir requires LogDir (a durable graph is a view of the durable log)")
	}
	return nil
}

// districtState bundles one district's simulation machinery.
type districtState struct {
	name    string
	gen     *climate.Generator
	days    []climate.Day
	truth   *climate.Truth
	fleet   *wsn.Fleet
	cloud   *wsn.CloudStore
	gateway *wsn.Gateway
	reports []ik.Report
	// reportIdx advances through reports as days pass.
	reportIdx int
	builder   *featureBuilder
}

// Result is the outcome of a Run.
type Result struct {
	// Skill holds one verification per forecaster, aggregated across
	// districts over the evaluation period.
	Skill []forecast.Verification
	// Bulletins are the fused-forecaster products disseminated.
	Bulletins []forecast.Bulletin
	// Hub is the dissemination accounting.
	Hub dissemination.HubStats
	// Ingest totals.
	Fetched, Annotated, Failed, Inferences int
	// DroughtFraction is the mean ground-truth drought frequency over
	// the evaluation period.
	DroughtFraction float64
	// EvaluatedDays counts verified forecast issue days.
	EvaluatedDays int
	// Issues holds every verified forecast issue when
	// Config.RecordIssues is set (for offline ablation).
	Issues []Issue
	// TrainBase is the training-period drought base rate used for
	// calibration (exposed for ablations).
	TrainBase float64
	// CalibratedSensor is the trained sensor-only model (for building
	// fusion variants offline).
	CalibratedSensor forecast.SensorStat
}

// Issue is one verified forecast opportunity.
type Issue struct {
	District string
	Features forecast.Features
	// Observed is the ground truth at the verification lead.
	Observed bool
}

// SkillByName indexes the verifications.
func (r *Result) SkillByName(name string) (forecast.Verification, bool) {
	for _, v := range r.Skill {
		if v.Name == name {
			return v, true
		}
	}
	return forecast.Verification{}, false
}

// System is an assembled DEWS.
type System struct {
	cfg        Config
	middleware *core.Middleware
	hub        *dissemination.Hub
	billboard  *dissemination.SmartBillboard
	sms        *dissemination.SMSBroadcast
	radio      *dissemination.IPRadio
	web        *dissemination.SemanticWeb
	dviMap     *forecast.VulnerabilityMap
	districts  []*districtState
	// log is the durable event log under the broker (nil without
	// Config.LogDir); recovered counts the records replayed from a
	// previous run at startup.
	log       *eventlog.Log
	recovered int
	// store is the persistent triple store behind the semantic-web
	// channel (nil without Config.GraphDir).
	store *graphlog.Store
	// bulletins is the materializer's handler subscription on
	// bulletin/#: the only path by which bulletins enter the graph.
	bulletins *core.Subscription
	// Materializer accounting, surfaced under /stats extra.semweb:
	// bulletin records committed to the graph (open-time repair and
	// live), records that could not be (an undecodable payload or a
	// failed graph write), and orphan bulletins removed at open.
	materialized, decodeErrors, orphansSwept atomic.Int64

	// totalsMu guards the running ingest totals, which the gateway's
	// /stats endpoint reads while Run is (or was) accumulating them.
	totalsMu sync.Mutex
	totals   IngestTotals
}

// IngestTotals is the running pipeline accounting surfaced by the
// gateway's /stats endpoint (Result carries the same numbers once Run
// returns).
type IngestTotals struct {
	Fetched    int `json:"fetched"`
	Annotated  int `json:"annotated"`
	Failed     int `json:"failed"`
	Inferences int `json:"inferences"`
}

// NewSystem builds the full stack.
func NewSystem(cfg Config) (sys *System, err error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	onto, _, err := drought.BuildMaterialized()
	if err != nil {
		return nil, err
	}
	rules, err := cep.ParseRules(SensorRules)
	if err != nil {
		return nil, err
	}
	ikRules, err := ik.CompileRules(ik.Catalogue())
	if err != nil {
		return nil, err
	}
	mw, err := core.New(core.Config{
		Ontology: onto,
		Rules:    append(rules, ikRules...),
		// Graph materialization of every observation is too heavy for
		// multi-decade runs; inferences are graphed by the middleware when
		// enabled. Examples enable it on short runs.
		GraphObservations: false,
	})
	if err != nil {
		return nil, err
	}
	if cfg.FetchParallelism > 0 {
		mw.Protocol().SetParallelism(cfg.FetchParallelism)
	}
	// The simulation's own topic universe is small and closed (per
	// district: observations, IK indicators, events, one bulletin), but
	// -serve exposes /publish to the network; cap retained-topic
	// cardinality so remote publishers cannot grow broker memory
	// without bound. Together with the gateway's per-envelope payload
	// cap this bounds worst-case retained bytes.
	mw.Broker().SetRetainedLimit(8192)

	var elog *eventlog.Log
	recovered := 0
	// bulletins collects the log's bulletin/# records for the graph
	// repair below, from the broker's recovery scan, which reads the
	// whole log anyway. Recovery runs before the graph and the districts
	// are built: with them already live on the small heap, its
	// allocations make the collector run half again as often (314
	// instead of 209 collections opening an 8-year log).
	var bulletins []eventlog.Record
	if cfg.LogDir != "" {
		elog, err = eventlog.Open(eventlog.Config{
			Dir:          cfg.LogDir,
			SegmentBytes: cfg.LogSegmentBytes,
			RetainAge:    cfg.LogRetain,
		})
		if err != nil {
			return nil, err
		}
		// Any later constructor failure must release the log — its sync
		// and compaction goroutines would otherwise tick for the life of
		// the process.
		defer func() {
			if err != nil {
				err = errors.Join(err, elog.Close())
			}
		}()
		// The retained limit is already set, so recovery honors it.
		recovered, err = mw.Broker().AttachLogVisit(elog, func(rec eventlog.Record) error {
			if core.TopicMatch("bulletin/#", rec.Topic) {
				bulletins = append(bulletins, rec)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var store *graphlog.Store
	web := dissemination.NewSemanticWeb()
	if cfg.GraphDir != "" {
		store, err = graphlog.Open(graphlog.Config{
			Dir:                cfg.GraphDir,
			CheckpointInterval: cfg.GraphCheckpointInterval,
		})
		if err != nil {
			return nil, err
		}
		// Like the event log: a later constructor failure must release the
		// store, or its checkpoint goroutine outlives the failed build.
		defer func() {
			if err != nil {
				err = errors.Join(err, store.Close())
			}
		}()
		web = dissemination.NewPersistentSemanticWeb(store.Graph(), store.AddAll)
	}

	s := &System{
		cfg:        cfg,
		middleware: mw,
		log:        elog,
		recovered:  recovered,
		store:      store,
		hub:        dissemination.NewHub(),
		billboard:  dissemination.NewSmartBillboard(),
		sms:        dissemination.NewSMSBroadcast(),
		radio:      dissemination.NewIPRadio("st"),
		web:        web,
		dviMap:     forecast.NewVulnerabilityMap(),
	}
	if err := s.hub.Register(s.billboard, forecast.DVINormal); err != nil {
		return nil, err
	}
	if err := s.hub.Register(s.sms, forecast.DVIWarning); err != nil {
		return nil, err
	}
	if err := s.hub.Register(s.radio, forecast.DVIWatch); err != nil {
		return nil, err
	}
	if err := s.repairGraph(bulletins); err != nil {
		return nil, err
	}

	for di, name := range cfg.Districts {
		seed := cfg.Seed + int64(di)*101
		gen, err := climate.NewGenerator(climate.DefaultParams(seed))
		if err != nil {
			return nil, err
		}
		cloud := wsn.NewCloudStore()
		link := wsn.NewLink(wsn.LinkConfig{
			LossRate: cfg.LinkLossRate, CorruptRate: 0.03, MaxRetries: 4, Seed: seed + 1,
		})
		gw := wsn.NewGateway(link, cloud)
		fleet, err := wsn.NewFleet(cfg.NodesPerDistrict, []string{name}, seed+2)
		if err != nil {
			return nil, err
		}
		for _, n := range fleet.Nodes {
			gw.Register(n)
		}
		if err := mw.Protocol().AddSource("cloud-"+name, cloud); err != nil {
			return nil, err
		}
		if err := s.sms.Subscribe(name, fmt.Sprintf("+27-51-%04d", di)); err != nil {
			return nil, err
		}
		s.districts = append(s.districts, &districtState{
			name: name, gen: gen, cloud: cloud, gateway: gw, fleet: fleet,
		})
	}

	// Every bulletin/# record becomes graph triples here, whether Run
	// issued it or a client sent it to /publish. One dispatcher worker is
	// enough: this is the system's only handler subscription, and one
	// subscription never runs on two workers at once.
	mw.Broker().StartDispatch(1)
	s.bulletins, err = mw.Broker().SubscribeHandler("bulletin/#", 8192, core.DropOldest, func(m core.Message) {
		if err := s.materialize(m.Offset, m.PayloadJSON()); err != nil {
			s.decodeErrors.Add(1)
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// repairGraph converges the graph to the event log just opened. It
// removes the bulletins whose offset is at or past the log's next offset
// (the log lost their records with its unsynced tail; it recovers a
// contiguous prefix, so that is exactly the lost set), then
// re-materializes every bulletin record the log kept. A durable graph
// always comes with a log (Config.Validate), so s.log is set whenever
// s.store is.
func (s *System) repairGraph(bulletins []eventlog.Record) error {
	if s.store != nil {
		for _, node := range s.web.BulletinsFrom(s.log.NextOffset()) {
			for _, t := range s.store.Graph().Match(node, nil, nil) {
				if _, err := s.store.Remove(t); err != nil {
					return err
				}
			}
			s.orphansSwept.Add(1)
		}
	}
	for _, rec := range bulletins {
		if err := s.materialize(rec.Offset, rec.Payload); err != nil {
			return err
		}
	}
	return nil
}

// materialize commits the bulletin record at offset to the graph. A
// payload that is not a valid bulletin is counted, not fatal: any
// client may publish on bulletin/#. Only a failed graph write is
// returned. Re-adding a bulletin the graph already holds (the open-time
// repair re-materializes every logged one) is a no-op that never
// reaches the graph WAL.
func (s *System) materialize(offset uint64, payload []byte) error {
	var b forecast.Bulletin
	if err := json.Unmarshal(payload, &b); err != nil || b.Validate() != nil {
		s.decodeErrors.Add(1)
		return nil
	}
	if err := s.web.Materialize(offset, b); err != nil {
		return err
	}
	s.materialized.Add(1)
	return nil
}

// Middleware exposes the semantic middleware (for examples and tests).
func (s *System) Middleware() *core.Middleware { return s.middleware }

// Recovered returns how many durable records were replayed from a
// previous run's event log when the system was built (0 without LogDir).
func (s *System) Recovered() int { return s.recovered }

// Close drains the bulletin materializer and stops the broker's
// dispatcher, then fsyncs and closes the event log and the graph store.
// Call it once the run — and any -serve period — is over.
func (s *System) Close() error {
	broker := s.middleware.Broker()
	broker.DrainDispatch()
	broker.StopDispatch()
	var first error
	if s.log != nil {
		first = s.log.Close()
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// GraphStore exposes the persistent triple store behind the
// semantic-web channel (nil without Config.GraphDir).
func (s *System) GraphStore() *graphlog.Store { return s.store }

// Web exposes the semantic-web channel (examples mount it over HTTP).
func (s *System) Web() *dissemination.SemanticWeb { return s.web }

// Materialized returns how many bulletin records this process has
// committed to the graph: those re-materialized when the system was
// built over an existing log, plus every bulletin published since.
func (s *System) Materialized() int64 { return s.materialized.Load() }

// Billboard exposes the billboard channel.
func (s *System) Billboard() *dissemination.SmartBillboard { return s.billboard }

// DVIMap exposes the spatial drought-vulnerability-index distribution.
func (s *System) DVIMap() *forecast.VulnerabilityMap { return s.dviMap }

// IngestTotals returns the running pipeline accounting.
func (s *System) IngestTotals() IngestTotals {
	s.totalsMu.Lock()
	defer s.totalsMu.Unlock()
	return s.totals
}

// NewGateway builds the HTTP/SSE subscription gateway over the system's
// broker, with the DEWS ingest and dissemination totals wired into its
// /stats endpoint.
func (s *System) NewGateway() (*gateway.Gateway, error) {
	return gateway.New(gateway.Config{
		Broker: s.middleware.Broker(),
		Extra: func() map[string]any {
			semweb := map[string]any{
				"bulletin_triples": s.web.TripleCount(),
				"materialized":     s.materialized.Load(),
				"decode_errors":    s.decodeErrors.Load(),
				"orphans_swept":    s.orphansSwept.Load(),
				"dropped":          s.bulletins.Dropped(),
			}
			if s.store != nil {
				semweb["store"] = s.store.Stats()
			}
			return map[string]any{
				"ingest":          s.IngestTotals(),
				"ik_out_of_order": s.middleware.IKOutOfOrder(),
				"dissemination":   s.hub.Stats(),
				"semweb":          semweb,
			}
		},
	})
}

// ServeMux mounts the gateway at the root alongside the semantic-web
// channel: gateway endpoints (/subscribe, /publish, /v1/queue, /stats,
// /healthz) plus the RDF channel under /semweb/ and at its legacy paths
// (/bulletins, /sparql, /health). The returned Gateway should be shut
// down when the server stops so SSE clients get a clean goodbye.
func (s *System) ServeMux() (*http.ServeMux, *gateway.Gateway, error) {
	gw, err := s.NewGateway()
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", gw)
	mux.Handle("/semweb/", http.StripPrefix("/semweb", s.web))
	mux.Handle("/bulletins", s.web)
	mux.Handle("/sparql", s.web)
	mux.Handle("/health", s.web)
	return mux, gw, nil
}

// Run executes the full simulation and verification.
func (s *System) Run() (*Result, error) {
	cfg := s.cfg
	totalDays := 365 * cfg.Years
	trainDays := 365 * cfg.TrainYears

	// --- phase 1: simulate climate, ground truth and IK reports ---
	for _, d := range s.districts {
		d.days = d.gen.GenerateDays(totalDays)
		truth, err := climate.Label(d.days, 90)
		if err != nil {
			return nil, err
		}
		d.truth = truth
		pool, err := ik.NewInformantPool(cfg.Informants, cfg.Seed+int64(len(d.name)))
		if err != nil {
			return nil, err
		}
		reports, err := ik.GenerateReports(ik.GeneratorConfig{
			Pool: pool, District: d.name, ReportRate: cfg.IKReportRate,
			Seed: cfg.Seed + 7,
		}, d.days, truth)
		if err != nil {
			return nil, err
		}
		d.reports = reports
		// Score the training prefix so informant reliabilities are warm.
		var trainReports []ik.Report
		for _, r := range reports {
			if r.Time.Before(d.days[0].Date.AddDate(0, 0, trainDays)) {
				trainReports = append(trainReports, r)
			}
		}
		if _, err := ik.ScoreReports(trainReports, d.days, truth, s.middleware.IKTracker()); err != nil {
			return nil, err
		}
	}

	// --- phase 2: fit climatology and calibrate forecasters ---
	// (from the true series' training prefix: in deployment this is the
	// historical record).
	for _, d := range s.districts {
		rain := make([]float64, trainDays)
		temp := make([]float64, trainDays)
		for i := 0; i < trainDays; i++ {
			rain[i] = d.days[i].RainMM
			temp[i] = d.days[i].TempC
		}
		climRain, climTemp := fitClimatology(rain, temp, d.days[0].Date)
		d.builder = newFeatureBuilder(d.name, climRain, climTemp, s.middleware.IKTracker())
	}
	baseRate := 0.0
	for _, d := range s.districts {
		n, k := 0, 0
		for i := trainDays; i < totalDays; i++ {
			if i < len(d.truth.InDrought) {
				n++
				if d.truth.InDrought[i] {
					k++
				}
			}
		}
		if n > 0 {
			baseRate += float64(k) / float64(n)
		}
	}
	baseRate /= float64(len(s.districts))
	if baseRate <= 0 {
		baseRate = 0.1
	}
	trainBase := 0.0
	for _, d := range s.districts {
		k := 0
		for i := 0; i < trainDays; i++ {
			if d.truth.InDrought[i] {
				k++
			}
		}
		trainBase += float64(k) / float64(trainDays)
	}
	trainBase /= float64(len(s.districts))
	if trainBase <= 0.01 {
		trainBase = 0.1
	}

	sensor := forecast.SensorStat{Intercept: -1}
	ikOnly := forecast.IKOnly{BaseRate: trainBase}
	forecasters := []forecast.Forecaster{
		forecast.Climatology{BaseRate: trainBase},
		forecast.Persistence{},
		&sensor,
		ikOnly,
		forecast.Fused{Sensor: sensor, IK: ikOnly},
	}
	verifs := make([]forecast.Verification, len(forecasters))
	for i, fc := range forecasters {
		verifs[i] = forecast.Verification{Name: fc.Name(), LeadDays: cfg.LeadDays}
	}

	// --- phase 3: day-by-day through the real pipeline ---
	evSubs := make(map[string]*core.Subscription)
	for _, d := range s.districts {
		sub, err := s.middleware.Broker().Subscribe("event/"+d.name+"/#", 65536, core.DropOldest)
		if err != nil {
			return nil, err
		}
		evSubs[d.name] = sub
	}
	obsSub, err := s.middleware.Broker().Subscribe("obs/#", 1<<20, core.DropOldest)
	if err != nil {
		return nil, err
	}

	result := &Result{}
	var trainFeatures []forecast.Features
	droughtDaySum, droughtDayN := 0, 0

	for dayIdx := 0; dayIdx < totalDays; dayIdx++ {
		// 3a. sensors sample and upload.
		for _, d := range s.districts {
			day := d.days[dayIdx]
			for _, n := range d.fleet.Nodes {
				if rs := n.Sample(day); len(rs) > 0 {
					if err := d.gateway.Ingest(rs); err != nil {
						return nil, err
					}
				}
			}
		}
		// 3b. middleware ingests from every cloud. Ingest may salvage a
		// partial batch when a source fails, so account the cycle's work
		// before deciding the error is fatal.
		rep, err := s.middleware.Ingest(0)
		result.Fetched += rep.Fetched
		result.Annotated += rep.Annotated
		result.Failed += rep.Failed
		result.Inferences += rep.Inferences
		s.totalsMu.Lock()
		s.totals.Fetched += rep.Fetched
		s.totals.Annotated += rep.Annotated
		s.totals.Failed += rep.Failed
		s.totals.Inferences += rep.Inferences
		s.totalsMu.Unlock()
		if err != nil {
			return nil, err
		}

		// 3c. IK reports dated today enter the middleware.
		for _, d := range s.districts {
			today := d.days[dayIdx].Date
			var due []ik.Report
			for d.reportIdx < len(d.reports) && !d.reports[d.reportIdx].Time.After(today) {
				due = append(due, d.reports[d.reportIdx])
				d.reportIdx++
			}
			if len(due) > 0 {
				if _, err := s.middleware.PublishIKReports(due); err != nil {
					return nil, err
				}
				for _, r := range due {
					d.builder.addIKReport(r)
				}
			}
		}

		// 3d. feature builders consume today's published messages.
		if err := s.consumeObservations(obsSub); err != nil {
			return nil, err
		}
		for _, d := range s.districts {
			for _, msg := range evSubs[d.name].Poll(0) {
				ev, err := core.PayloadAs[cep.Event](msg)
				if err != nil {
					return nil, fmt.Errorf("dews: inference: %w", err)
				}
				d.builder.addCEPSignal(ev.Type, ev.Time, ev.Confidence)
			}
		}

		// 3e. forecast issue + verification (evaluation period only;
		// verification needs truth at lead).
		verifyIdx := dayIdx + cfg.LeadDays
		for _, d := range s.districts {
			f := d.builder.features(d.days[dayIdx].Date)
			if dayIdx < trainDays {
				if dayIdx >= 120 { // skip cold-start window
					trainFeatures = append(trainFeatures, f)
				}
				continue
			}
			if dayIdx == trainDays {
				// Calibrate the sensor model once, entering evaluation.
				sensor.Calibrate(trainFeatures, trainBase)
				forecasters[2] = &sensor
				forecasters[4] = forecast.Fused{Sensor: sensor, IK: ikOnly}
			}
			if verifyIdx >= totalDays {
				continue
			}
			observed := d.truth.InDrought[verifyIdx]
			droughtDaySum += boolToInt(observed)
			droughtDayN++
			for i, fc := range forecasters {
				p := fc.Forecast(f)
				verifs[i].Brier.Add(p, observed)
				verifs[i].Contingency.Add(p >= cfg.DecisionThreshold, observed)
			}
			result.EvaluatedDays++
			if cfg.RecordIssues {
				result.Issues = append(result.Issues, Issue{
					District: d.name, Features: f, Observed: observed,
				})
			}

			// Fused bulletin dissemination (weekly cadence). Bulletins
			// also go out on the broker's bulletin topic, so gateway
			// subscribers (SSE dashboards, ack-queue SMS bridges) see the
			// same product as the in-process channels — and late
			// subscribers replay the latest bulletin per district from
			// the retained store.
			if dayIdx%7 == 0 {
				b := forecast.MakeBulletin(d.name, f, forecasters[4], cfg.LeadDays)
				if err := s.hub.Publish(b); err != nil {
					return nil, err
				}
				if _, err := s.middleware.Broker().Publish(core.Message{
					Topic:   core.TopicBulletin(d.name),
					Time:    b.Issued,
					Payload: b,
					Headers: map[string]string{"band": b.Band.String()},
				}); err != nil {
					return nil, err
				}
				if err := s.dviMap.Update(b); err != nil {
					return nil, err
				}
				result.Bulletins = append(result.Bulletins, b)
			}
		}
	}

	// The graph holds every bulletin of the run once Run returns.
	s.middleware.Broker().DrainDispatch()
	result.Skill = verifs
	result.Hub = s.hub.Stats()
	result.TrainBase = trainBase
	result.CalibratedSensor = sensor
	if droughtDayN > 0 {
		result.DroughtFraction = float64(droughtDaySum) / float64(droughtDayN)
	}
	return result, nil
}

// Evaluate re-scores any forecaster against recorded issues (requires
// Config.RecordIssues). This is how ablations compare fusion variants
// without re-simulating.
func Evaluate(name string, fc forecast.Forecaster, issues []Issue, threshold float64, leadDays int) forecast.Verification {
	if threshold == 0 {
		threshold = 0.5
	}
	v := forecast.Verification{Name: name, LeadDays: leadDays}
	for _, is := range issues {
		p := fc.Forecast(is.Features)
		v.Brier.Add(p, is.Observed)
		v.Contingency.Add(p >= threshold, is.Observed)
	}
	return v
}

// consumeObservations folds the day's observation messages into district
// daily means. Every observation counts, whatever form its payload came
// in; one that does not decode as an ssn.Record is an error.
func (s *System) consumeObservations(sub *core.Subscription) error {
	type agg struct {
		rainSum          float64
		rainN            int
		soilSum, ndviSum float64
		soilN, ndviN     int
		tempSum          float64
		tempN            int
	}
	perDistrict := make(map[string]*agg)
	for _, msg := range sub.Poll(0) {
		parts := strings.Split(msg.Topic, "/")
		if len(parts) != 3 {
			continue
		}
		district, prop := parts[1], parts[2]
		a, ok := perDistrict[district]
		if !ok {
			a = &agg{}
			perDistrict[district] = a
		}
		rec, err := core.PayloadAs[ssn.Record](msg)
		if err != nil {
			return fmt.Errorf("dews: observation: %w", err)
		}
		switch prop {
		case "Rainfall":
			a.rainSum += rec.Value
			a.rainN++
		case "SoilMoisture":
			a.soilSum += rec.Value
			a.soilN++
		case "NDVI":
			a.ndviSum += rec.Value
			a.ndviN++
		case "AirTemperature":
			a.tempSum += rec.Value
			a.tempN++
		}
	}
	for _, d := range s.districts {
		a := perDistrict[d.name]
		if a == nil {
			d.builder.addDay(0, 0, 0, 0, false, false, false)
			continue
		}
		rain := 0.0
		if a.rainN > 0 {
			rain = nanToZero(a.rainSum / float64(a.rainN))
		}
		d.builder.addDay(rain,
			safeMean(a.soilSum, a.soilN), safeMean(a.ndviSum, a.ndviN), safeMean(a.tempSum, a.tempN),
			a.soilN > 0, a.ndviN > 0, a.tempN > 0)
	}
	return nil
}

func safeMean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FormatSkillTable renders the EXP-C1 table.
func FormatSkillTable(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "forecast skill @%dd lead, %d verified issues, base rate %.2f\n",
		skillLead(r), r.EvaluatedDays, r.DroughtFraction)
	for _, v := range r.Skill {
		sb.WriteString(v.Row())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func skillLead(r *Result) int {
	if len(r.Skill) > 0 {
		return r.Skill[0].LeadDays
	}
	return 0
}
