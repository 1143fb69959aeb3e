package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cep"
	"repro/internal/climate"
	"repro/internal/ik"
	"repro/internal/ontology/drought"
	"repro/internal/ontology/ssn"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/wsn"
)

func TestTopicMatch(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"obs/mangaung/Rainfall", "obs/mangaung/Rainfall", true},
		{"obs/+/Rainfall", "obs/mangaung/Rainfall", true},
		{"obs/+/Rainfall", "obs/xhariep/Rainfall", true},
		{"obs/+/Rainfall", "obs/mangaung/SoilMoisture", false},
		{"obs/#", "obs/mangaung/Rainfall", true},
		{"obs/#", "obs", true}, // '#' matches the parent level too (MQTT semantics)
		{"obs/#", "other", false},
		{"#", "anything/at/all", true},
		{"obs/+", "obs/mangaung/Rainfall", false},
		{"obs/mangaung", "obs/mangaung/Rainfall", false},
		{"event/+/DroughtWarning", "event/xhariep/DroughtWarning", true},
	}
	for _, c := range cases {
		if got := TopicMatch(c.pattern, c.topic); got != c.want {
			t.Errorf("TopicMatch(%q, %q) = %v, want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

func TestValidatePattern(t *testing.T) {
	good := []string{"a/b/c", "a/+/c", "a/#", "#", "+"}
	for _, p := range good {
		if err := ValidatePattern(p); err != nil {
			t.Errorf("ValidatePattern(%q) = %v", p, err)
		}
	}
	bad := []string{"", "a//b", "a/#/b", "a/b+", "a/#b"}
	for _, p := range bad {
		if err := ValidatePattern(p); err == nil {
			t.Errorf("ValidatePattern(%q) should fail", p)
		}
	}
}

func TestMessageValidate(t *testing.T) {
	if err := (Message{Topic: "a/b"}).Validate(); err != nil {
		t.Error(err)
	}
	for _, topic := range []string{"", "a//b", "a/+/b", "a/#"} {
		if err := (Message{Topic: topic}).Validate(); err == nil {
			t.Errorf("topic %q should be invalid for publish", topic)
		}
	}
}

func TestBrokerPubSub(t *testing.T) {
	b := NewBroker()
	sub, err := b.Subscribe("obs/+/Rainfall", 10, DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Publish(Message{Topic: "obs/mangaung/Rainfall", Payload: 1.5})
	if err != nil || n != 1 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	if _, err := b.Publish(Message{Topic: "obs/mangaung/SoilMoisture", Payload: 0.2}); err != nil {
		t.Fatal(err)
	}
	msgs := sub.Poll(0)
	if len(msgs) != 1 || msgs[0].Payload != 1.5 {
		t.Fatalf("Poll = %v", msgs)
	}
	if sub.Pending() != 0 {
		t.Error("queue should be drained")
	}
}

func TestBrokerBackpressureDropOldest(t *testing.T) {
	b := NewBroker()
	sub, _ := b.Subscribe("x/#", 3, DropOldest)
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(Message{Topic: "x/t", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := sub.Poll(0)
	if len(msgs) != 3 {
		t.Fatalf("queued = %d, want 3", len(msgs))
	}
	if msgs[0].Payload != 2 || msgs[2].Payload != 4 {
		t.Errorf("oldest should be dropped: %v", msgs)
	}
	if sub.Dropped() != 2 {
		t.Errorf("dropped = %d", sub.Dropped())
	}
}

func TestBrokerBackpressureDropNewest(t *testing.T) {
	b := NewBroker()
	sub, _ := b.Subscribe("x/#", 2, DropNewest)
	for i := 0; i < 4; i++ {
		if _, err := b.Publish(Message{Topic: "x/t", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := sub.Poll(0)
	if len(msgs) != 2 || msgs[0].Payload != 0 || msgs[1].Payload != 1 {
		t.Errorf("DropNewest should keep the first messages: %v", msgs)
	}
}

func TestBrokerRetainedReplay(t *testing.T) {
	b := NewBroker()
	if _, err := b.Publish(Message{Topic: "obs/mangaung/Rainfall", Payload: 7.0}); err != nil {
		t.Fatal(err)
	}
	// A late subscriber receives the retained message.
	sub, _ := b.Subscribe("obs/#", 10, DropOldest)
	msgs := sub.Poll(0)
	if len(msgs) != 1 || msgs[0].Payload != 7.0 {
		t.Fatalf("retained replay = %v", msgs)
	}
	got, ok := b.Retained("obs/mangaung/Rainfall")
	if !ok || got.Payload != 7.0 {
		t.Error("Retained lookup failed")
	}
}

func TestBrokerUnsubscribe(t *testing.T) {
	b := NewBroker()
	sub, _ := b.Subscribe("x/#", 5, DropOldest)
	b.Unsubscribe(sub)
	if _, err := b.Publish(Message{Topic: "x/y", Payload: 1}); err != nil {
		t.Fatal(err)
	}
	if sub.Pending() != 0 {
		t.Error("closed subscription received a message")
	}
	if b.Stats().Subscriptions != 0 {
		t.Error("subscription not removed")
	}
	b.Unsubscribe(nil) // must not panic
}

func TestBrokerStats(t *testing.T) {
	b := NewBroker()
	s1, _ := b.Subscribe("a/#", 5, DropOldest)
	s2, _ := b.Subscribe("a/b", 5, DropOldest)
	if _, err := b.Publish(Message{Topic: "a/b"}); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Published != 1 || st.Deliveries != 2 || st.Subscriptions != 2 {
		t.Errorf("stats = %+v", st)
	}
	_ = s1
	_ = s2
}

func TestBrokerConcurrentPublish(t *testing.T) {
	b := NewBroker()
	sub, _ := b.Subscribe("load/#", 100000, DropOldest)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, _ = b.Publish(Message{Topic: fmt.Sprintf("load/%d", w), Payload: i})
			}
		}(w)
	}
	wg.Wait()
	if got := sub.Delivered(); got != 4000 {
		t.Errorf("delivered = %d, want 4000", got)
	}
}

// buildMiddleware assembles a middleware over the real ontology with
// sensor + IK rules.
func buildMiddleware(t *testing.T) *Middleware {
	t.Helper()
	o, _, err := drought.BuildMaterialized()
	if err != nil {
		t.Fatal(err)
	}
	rules := cep.MustParseRules(`
RULE rainfall-deficit
WHEN avg(Rainfall) < 0.8 OVER 30d
COOLDOWN 14d
EMIT RainfallDeficit SEVERITY watch CONFIDENCE 0.75 SOURCE sensor

RULE soil-decline
WHEN avg(SoilMoisture) < 0.18 OVER 20d
COOLDOWN 14d
EMIT SoilMoistureDecline SEVERITY warning CONFIDENCE 0.8 SOURCE sensor
`)
	ikRules, err := ik.CompileRules(ik.Catalogue())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Ontology: o, Rules: append(rules, ikRules...), GraphObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMiddlewareRequiresOntology(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("middleware without ontology should fail")
	}
}

func TestMiddlewareIngestCycle(t *testing.T) {
	m := buildMiddleware(t)

	// Fill a cloud store via the WSN substrate.
	cloud := wsn.NewCloudStore()
	link := wsn.NewLink(wsn.LinkConfig{LossRate: 0.1, MaxRetries: 3, Seed: 7})
	gw := wsn.NewGateway(link, cloud)
	fleet, err := wsn.NewFleet(6, []string{"mangaung", "xhariep"}, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fleet.Nodes {
		gw.Register(n)
	}
	gen, err := climate.NewGenerator(climate.DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range gen.GenerateDays(40) {
		for _, n := range fleet.Nodes {
			if rs := n.Sample(day); len(rs) > 0 {
				if err := gw.Ingest(rs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := m.Protocol().AddSource("freestate-cloud", cloud); err != nil {
		t.Fatal(err)
	}

	obsSub, _ := m.Broker().Subscribe("obs/#", 100000, DropOldest)
	rep, err := m.Ingest(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fetched == 0 || rep.Annotated == 0 {
		t.Fatalf("ingest report = %+v", rep)
	}
	if rep.Annotated+rep.Failed != rep.Fetched {
		t.Errorf("ingest accounting broken: %+v", rep)
	}
	msgs := obsSub.Poll(0)
	if len(msgs) != rep.Annotated {
		t.Errorf("published %d observation messages, want %d", len(msgs), rep.Annotated)
	}
	// Observations landed in the data graph and are queryable.
	sols, err := m.Segment().Select(`
PREFIX ssn: <http://dews.africrid.example/ontology/ssn#>
SELECT ?obs WHERE { ?obs a ssn:Observation . } LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols.Rows) == 0 {
		t.Error("no observations queryable via SPARQL")
	}
	// Cursor advanced: second ingest fetches nothing.
	rep2, err := m.Ingest(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fetched != 0 {
		t.Errorf("second ingest should be empty, got %+v", rep2)
	}
}

func TestMiddlewareInferenceFlow(t *testing.T) {
	m := buildMiddleware(t)
	cloud := wsn.NewCloudStore()
	if err := m.Protocol().AddSource("c", cloud); err != nil {
		t.Fatal(err)
	}
	evSub, _ := m.Broker().Subscribe("event/#", 10000, DropOldest)

	// Inject a synthetic bone-dry month directly into the cloud.
	start := time.Date(2015, 11, 1, 6, 0, 0, 0, time.UTC)
	var batch []wsn.RawReading
	for d := 0; d < 35; d++ {
		batch = append(batch, wsn.RawReading{
			NodeID: "n1", Vendor: "libelium", District: "mangaung",
			PropertyName: "pluviometer", UnitName: "mm", Value: 0,
			Time: start.AddDate(0, 0, d), Seq: uint32(d + 1), BatteryV: 4,
		})
	}
	cloud.Upload(batch)
	rep, err := m.Ingest(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inferences == 0 {
		t.Fatal("a dry month must trigger the rainfall-deficit rule")
	}
	events := evSub.Poll(0)
	found := false
	for _, msg := range events {
		if msg.Headers["rule"] == "rainfall-deficit" {
			found = true
			if msg.Headers["severity"] != "watch" {
				t.Errorf("severity header = %q", msg.Headers["severity"])
			}
		}
	}
	if !found {
		t.Error("RainfallDeficit event not published")
	}
	// The inference is also in the RDF graph with provenance.
	sols, err := m.Segment().Select(`
PREFIX dews: <http://dews.africrid.example/ontology/drought#>
SELECT ?e WHERE { ?e a dews:RainfallDeficit . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols.Rows) == 0 {
		t.Error("inference not materialized in graph")
	}
}

func TestMiddlewareIKFlow(t *testing.T) {
	m := buildMiddleware(t)
	ikSub, _ := m.Broker().Subscribe("ik/#", 1000, DropOldest)
	evSub, _ := m.Broker().Subscribe("event/+/IKDrySignal", 1000, DropOldest)

	start := time.Date(2015, 8, 1, 0, 0, 0, 0, time.UTC)
	var reports []ik.Report
	for i := 0; i < 3; i++ {
		reports = append(reports, ik.Report{
			Informant: fmt.Sprintf("elder-%d", i),
			Indicator: "mutiga-flowering",
			District:  "xhariep",
			Time:      start.AddDate(0, 0, i*2),
			Strength:  0.8,
		})
	}
	inf, err := m.PublishIKReports(reports)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ikSub.Poll(0)); got != 3 {
		t.Errorf("ik messages = %d, want 3", got)
	}
	if inf == 0 {
		t.Fatal("corroborated mutiga reports must produce an IK inference")
	}
	if got := len(evSub.Poll(0)); got == 0 {
		t.Error("IKDrySignal not published")
	}
}

func TestIKReportsMaterializedAsRDF(t *testing.T) {
	m := buildMiddleware(t)
	start := time.Date(2015, 8, 1, 0, 0, 0, 0, time.UTC)
	reports := []ik.Report{
		{Informant: "mme-dikeledi", Indicator: "mutiga-flowering", District: "xhariep",
			Time: start, Strength: 0.9},
		{Informant: "ntate-thabo", Indicator: "moon-halo", District: "xhariep",
			Time: start.AddDate(0, 0, 1), Strength: 0.6},
	}
	if _, err := m.PublishIKReports(reports); err != nil {
		t.Fatal(err)
	}
	// The reports are typed by the ontology classes and carry provenance.
	sols, err := m.Segment().Select(`
PREFIX ik: <http://dews.africrid.example/ontology/ik#>
SELECT ?r ?who ?rel WHERE {
  ?r a ik:MutigaTreeFlowering ; ik:reportedBy ?who .
  ?who ik:reliability ?rel .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols.Rows) != 1 {
		t.Fatalf("rows = %d: %s", len(sols.Rows), sols)
	}
	rel, _ := sols.Rows[0][sparql.Var("rel")].(rdf.Literal).Float()
	if rel <= 0 || rel > 1 {
		t.Errorf("reliability = %v", rel)
	}
	// Aggregate across reports: how many signs per district?
	agg, err := m.Segment().Select(`
PREFIX ik:   <http://dews.africrid.example/ontology/ik#>
PREFIX dews: <http://dews.africrid.example/ontology/drought#>
SELECT ?where (COUNT(*) AS ?n) WHERE {
  ?r ik:reportedBy ?who ; dews:affectsRegion ?where .
} GROUP BY ?where`)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) != 1 {
		t.Fatalf("agg rows = %d", len(agg.Rows))
	}
	if n, _ := agg.Rows[0][sparql.Var("n")].(rdf.Literal).Int(); n != 2 {
		t.Errorf("reports in xhariep = %d, want 2", n)
	}
}

func TestProtocolLayer(t *testing.T) {
	p := NewProtocolLayer()
	c1, c2 := wsn.NewCloudStore(), wsn.NewCloudStore()
	now := time.Now().UTC()
	c1.Upload([]wsn.RawReading{{NodeID: "a", Time: now}, {NodeID: "b", Time: now}})
	c2.Upload([]wsn.RawReading{{NodeID: "c", Time: now}})
	if err := p.AddSource("one", c1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSource("two", c2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSource("one", c1); err == nil {
		t.Error("duplicate source should fail")
	}
	if err := p.AddSource("", nil); err == nil {
		t.Error("nil source should fail")
	}
	all, err := p.FetchAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("FetchAll = %d", len(all))
	}
	if p.Fetched("one") != 2 || p.Fetched("two") != 1 {
		t.Error("fetch accounting wrong")
	}
	// Incremental: nothing new.
	again, err := p.FetchAll(0)
	if err != nil || len(again) != 0 {
		t.Fatalf("second fetch = %d, %v", len(again), err)
	}
	// New upload appears.
	c1.Upload([]wsn.RawReading{{NodeID: "d", Time: now}})
	more, err := p.Fetch("one", 0)
	if err != nil || len(more) != 1 {
		t.Fatalf("incremental fetch = %d, %v", len(more), err)
	}
	if _, err := p.Fetch("ghost", 0); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestCEPShardsPerDistrict(t *testing.T) {
	m := buildMiddleware(t)
	e1, err := m.Segment().CEPEngine("mangaung")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := m.Segment().CEPEngine("xhariep")
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatal("districts must get separate shards")
	}
	again, _ := m.Segment().CEPEngine("mangaung")
	if again != e1 {
		t.Fatal("shard must be cached")
	}
	keys := m.Segment().CEPKeys()
	if len(keys) != 2 || keys[0] != "mangaung" {
		t.Errorf("CEPKeys = %v", keys)
	}
}

func TestTopicBuilders(t *testing.T) {
	if TopicObservation("mangaung", "Rainfall") != "obs/mangaung/Rainfall" {
		t.Error("TopicObservation")
	}
	if TopicEvent("x", "E") != "event/x/E" {
		t.Error("TopicEvent")
	}
	if TopicIK("x", "mutiga") != "ik/x/mutiga" {
		t.Error("TopicIK")
	}
	if TopicBulletin("x") != "bulletin/x" {
		t.Error("TopicBulletin")
	}
}

func TestObservationRecordRoundTripThroughBroker(t *testing.T) {
	m := buildMiddleware(t)
	sub, _ := m.Broker().Subscribe("obs/#", 10, DropOldest)
	rec := ssn.Record{
		ID:       rdf.NSOBS.IRI("x/1"),
		Property: drought.Rainfall,
		Value:    3.5,
		Time:     time.Now().UTC(),
		Quality:  0.9,
	}
	if _, err := m.Broker().Publish(Message{
		Topic:   TopicObservation("mangaung", "Rainfall"),
		Payload: rec,
	}); err != nil {
		t.Fatal(err)
	}
	msgs := sub.Poll(0)
	if len(msgs) != 1 {
		t.Fatal("no message")
	}
	got, ok := msgs[0].Payload.(ssn.Record)
	if !ok || got.Value != 3.5 {
		t.Errorf("payload = %#v", msgs[0].Payload)
	}
}
