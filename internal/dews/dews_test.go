package dews

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dissemination"
	"repro/internal/eventlog"
	"repro/internal/forecast"
	"repro/internal/graphlog"
	"repro/internal/ik"
)

// smallConfig keeps unit-test runs fast: one district, short span.
func smallConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		Districts:        []string{"mangaung"},
		NodesPerDistrict: 3,
		Years:            6,
		TrainYears:       3,
		LeadDays:         30,
		Informants:       6,
		IKReportRate:     0.03,
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c := Config{Seed: 1}
	c.applyDefaults()
	if len(c.Districts) != 5 {
		t.Errorf("default districts = %v", c.Districts)
	}
	if c.Years == 0 || c.TrainYears == 0 || c.LeadDays == 0 {
		t.Error("defaults not applied")
	}
	bad := Config{Years: 3, TrainYears: 5, LeadDays: 30}
	if err := bad.Validate(); err == nil {
		t.Error("TrainYears >= Years should fail")
	}
	bad2 := Config{Years: 5, TrainYears: 2, LeadDays: 0}
	if err := bad2.Validate(); err == nil {
		t.Error("zero lead should fail")
	}
	graphOnly := Config{Years: 5, TrainYears: 2, LeadDays: 30, GraphDir: "g"}
	if err := graphOnly.Validate(); err == nil {
		t.Error("GraphDir without LogDir should fail")
	}
}

func TestNewSystem(t *testing.T) {
	s, err := NewSystem(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Middleware() == nil || s.Web() == nil || s.Billboard() == nil {
		t.Fatal("accessors nil")
	}
	if len(s.districts) != 1 {
		t.Fatalf("districts = %d", len(s.districts))
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run is slow")
	}
	s, err := NewSystem(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetched == 0 || res.Annotated == 0 {
		t.Fatalf("pipeline moved no data: %+v", res)
	}
	annotRate := float64(res.Annotated) / float64(res.Fetched)
	if annotRate < 0.9 {
		t.Errorf("annotation rate %.2f too low", annotRate)
	}
	if res.EvaluatedDays == 0 {
		t.Fatal("no forecasts verified")
	}
	if len(res.Skill) != 5 {
		t.Fatalf("forecasters = %d", len(res.Skill))
	}
	names := map[string]bool{}
	for _, v := range res.Skill {
		names[v.Name] = true
		if v.Contingency.N() != res.EvaluatedDays {
			t.Errorf("%s verified %d of %d", v.Name, v.Contingency.N(), res.EvaluatedDays)
		}
	}
	for _, want := range []string{"climatology", "persistence", "sensor-only", "ik-only", "fused"} {
		if !names[want] {
			t.Errorf("missing forecaster %s", want)
		}
	}
	if len(res.Bulletins) == 0 {
		t.Error("no bulletins disseminated")
	}
	if res.Hub.Received == 0 || res.Hub.Delivered["billboard"] == 0 {
		t.Errorf("hub stats = %+v", res.Hub)
	}
	table := FormatSkillTable(res)
	if !strings.Contains(table, "fused") {
		t.Errorf("table = %s", table)
	}
	// Directional claim (paper §6): fusion should not be worse than the
	// best single source on Brier score by a meaningful margin.
	fused, _ := res.SkillByName("fused")
	sensorOnly, _ := res.SkillByName("sensor-only")
	ikOnly, _ := res.SkillByName("ik-only")
	best := sensorOnly.Brier.Score()
	if b := ikOnly.Brier.Score(); b < best {
		best = b
	}
	if fused.Brier.Score() > best*1.15 {
		t.Errorf("fused Brier %.4f clearly worse than best single-source %.4f\n%s",
			fused.Brier.Score(), best, table)
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := smallConfig(17)
	cfg.Years, cfg.TrainYears = 4, 2
	s1, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fetched != r2.Fetched || r1.Annotated != r2.Annotated ||
		r1.Inferences != r2.Inferences || r1.EvaluatedDays != r2.EvaluatedDays {
		t.Errorf("non-deterministic run: %+v vs %+v", r1, r2)
	}
	for i := range r1.Skill {
		if r1.Skill[i].Brier.Score() != r2.Skill[i].Brier.Score() {
			t.Errorf("forecaster %s Brier differs across identical runs", r1.Skill[i].Name)
		}
	}
}

func TestFeatureBuilder(t *testing.T) {
	var clim, tempC [367]float64
	for d := 1; d <= 366; d++ {
		clim[d] = 1.5
		tempC[d] = 20
	}
	fb := newFeatureBuilder("x", &clim, &tempC, ik.NewInformantTracker())
	date := time.Date(2015, 11, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		fb.addDay(2.0, 0.3, 0.5, 22, true, true, true)
	}
	f := fb.features(date)
	if f.RainSum30 != 60 || f.RainSum90 != 180 {
		t.Errorf("rain sums = %v / %v", f.RainSum30, f.RainSum90)
	}
	if f.ClimRain30 != 45 || f.ClimRain90 != 135 {
		t.Errorf("clim sums = %v / %v", f.ClimRain30, f.ClimRain90)
	}
	if f.SoilMoisture != 0.3 || f.NDVI != 0.5 {
		t.Errorf("point features = %+v", f)
	}
	if f.TempAnomaly != 2 {
		t.Errorf("temp anomaly = %v", f.TempAnomaly)
	}
}

func TestFeatureBuilderIKWindows(t *testing.T) {
	var clim, tempC [367]float64
	fb := newFeatureBuilder("x", &clim, &tempC, ik.NewInformantTracker())
	date := time.Date(2015, 11, 1, 0, 0, 0, 0, time.UTC)
	// Two dry reports inside the 45d window, one stale beyond it.
	fb.addIKReport(ik.Report{Informant: "a", Indicator: "mutiga-flowering", Time: date.AddDate(0, 0, -10), Strength: 0.9})
	fb.addIKReport(ik.Report{Informant: "b", Indicator: "sifennefene-worms", Time: date.AddDate(0, 0, -20), Strength: 0.8})
	fb.addIKReport(ik.Report{Informant: "c", Indicator: "mutiga-flowering", Time: date.AddDate(0, 0, -90), Strength: 1})
	fb.addIKReport(ik.Report{Informant: "d", Indicator: "moon-halo", Time: date.AddDate(0, 0, -5), Strength: 0.7})
	f := fb.features(date)
	if f.IKDryConsensus <= 0 {
		t.Error("dry consensus missing")
	}
	if f.IKWetConsensus <= 0 {
		t.Error("wet consensus missing")
	}
	// Stale report evicted: asking again sees only live ones.
	if len(fb.ikReports) != 3 {
		t.Errorf("live reports = %d, want 3", len(fb.ikReports))
	}
}

func TestFeatureBuilderCEPWindow(t *testing.T) {
	var clim, tempC [367]float64
	fb := newFeatureBuilder("x", &clim, &tempC, ik.NewInformantTracker())
	date := time.Date(2015, 11, 1, 0, 0, 0, 0, time.UTC)
	fb.addCEPSignal("RainfallDeficit", date.AddDate(0, 0, -5), 0.8)
	fb.addCEPSignal("IKDroughtWarning", date.AddDate(0, 0, -10), 0.6)
	fb.addCEPSignal("RainfallDeficit", date.AddDate(0, 0, -60), 0.9) // stale
	fb.addCEPSignal("NotADroughtSignal", date, 1.0)                  // ignored type
	f := fb.features(date)
	if f.CEPDrySignals != 2 {
		t.Errorf("CEP signals = %d, want 2", f.CEPDrySignals)
	}
	if f.CEPConfidence < 0.69 || f.CEPConfidence > 0.71 {
		t.Errorf("CEP confidence = %v, want 0.7", f.CEPConfidence)
	}
}

func TestClimSumWrapsYear(t *testing.T) {
	var clim [367]float64
	for d := 1; d <= 366; d++ {
		clim[d] = 1
	}
	if got := climSum(&clim, 10, 30); got != 30 {
		t.Errorf("wrap sum = %v", got)
	}
}

func TestFitClimatology(t *testing.T) {
	start := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	days := 365 * 3
	rain := make([]float64, days)
	temp := make([]float64, days)
	for i := range rain {
		rain[i] = 2
		temp[i] = 18
	}
	cr, ct := fitClimatology(rain, temp, start)
	for d := 1; d <= 365; d++ {
		if cr[d] < 1.9 || cr[d] > 2.1 {
			t.Fatalf("clim rain[%d] = %v", d, cr[d])
		}
		if ct[d] < 17.9 || ct[d] > 18.1 {
			t.Fatalf("clim temp[%d] = %v", d, ct[d])
		}
	}
}

func TestSensorRulesParse(t *testing.T) {
	s, err := NewSystem(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// The middleware accepted the combined rule set; sanity-check the CEP
	// shard compiles per district.
	if _, err := s.Middleware().Segment().CEPEngine("mangaung"); err != nil {
		t.Fatal(err)
	}
}

// TestDurableLogAcrossSystems wires Config.LogDir end to end: a run's
// published messages survive into a second system built over the same
// directory, which recovers retained topics and continues the offset
// sequence.
func TestDurableLogAcrossSystems(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig(7)
	cfg.Years = 2
	cfg.TrainYears = 1
	cfg.LogDir = dir

	first, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Recovered() != 0 {
		t.Fatalf("fresh system recovered %d records", first.Recovered())
	}
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	published := first.Middleware().Broker().Stats().Published
	if published == 0 {
		t.Fatal("run published nothing")
	}
	nextOffset := first.Middleware().Broker().NextOffset()
	bulletin, ok := first.Middleware().Broker().Retained("bulletin/mangaung")
	if !ok {
		t.Fatal("no retained bulletin after run")
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := second.Recovered(); got != published {
		t.Fatalf("second system recovered %d records, want %d", got, published)
	}
	if got := second.Middleware().Broker().NextOffset(); got != nextOffset {
		t.Fatalf("offset sequence broke across restart: %d, want %d", got, nextOffset)
	}
	got, ok := second.Middleware().Broker().Retained("bulletin/mangaung")
	if !ok {
		t.Fatal("retained bulletin lost across restart")
	}
	if got.Offset != bulletin.Offset || !got.Time.Equal(bulletin.Time) {
		t.Fatalf("recovered bulletin %+v, want offset %d time %v", got, bulletin.Offset, bulletin.Time)
	}
}

// TestPersistentSemanticWeb runs a short durable simulation, reopens the
// system over the same directories and checks the graph is a view of
// the log's bulletin records: reopening recovers the same graph, the
// retained bulletins offered again to the materializer on subscribe add
// nothing, and one more bulletin record adds exactly its triples.
func TestPersistentSemanticWeb(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run is slow")
	}
	cfg := smallConfig(11)
	cfg.Years = 4
	cfg.TrainYears = 2
	cfg.LogDir = t.TempDir()
	cfg.GraphDir = t.TempDir()

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.GraphStore() == nil {
		t.Fatal("GraphDir set but no store")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	firstTriples := sys.Web().TripleCount()
	if want := len(res.Bulletins) * dissemination.BulletinTriples; want == 0 || firstTriples != want {
		t.Fatalf("graph holds %d triples after %d bulletins, want %d", firstTriples, len(res.Bulletins), want)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	broker := sys2.Middleware().Broker()
	broker.DrainDispatch() // the retained bulletins offered on subscribe
	if got := sys2.Web().TripleCount(); got != firstTriples {
		t.Fatalf("reopened graph holds %d triples, want %d", got, firstTriples)
	}
	if st := sys2.GraphStore().Stats(); st.Triples != firstTriples {
		t.Fatalf("store stats report %d triples, want %d", st.Triples, firstTriples)
	}
	b := res.Bulletins[0]
	b.District = "x"
	if _, err := broker.Publish(core.Message{Topic: core.TopicBulletin("x"), Time: b.Issued, Payload: b}); err != nil {
		t.Fatal(err)
	}
	// A payload that is not a bulletin is counted and adds nothing.
	if _, err := broker.Publish(core.Message{Topic: core.TopicBulletin("x"), Payload: "not a bulletin"}); err != nil {
		t.Fatal(err)
	}
	broker.DrainDispatch()
	if got, want := sys2.Web().TripleCount(), firstTriples+dissemination.BulletinTriples; got != want {
		t.Fatalf("one more bulletin record: %d triples, want %d", got, want)
	}
	if n := sys2.decodeErrors.Load(); n != 1 {
		t.Fatalf("decode errors = %d, want 1", n)
	}
}

// bulletinAt is a valid bulletin for the repair tests.
func bulletinAt(district string, day int) forecast.Bulletin {
	return forecast.Bulletin{
		District: district, Issued: time.Date(2015, 1, day, 0, 0, 0, 0, time.UTC),
		LeadDays: 30, Probability: 0.4, Band: forecast.DVIWatch,
	}
}

// appendBulletins writes bulletin/<district> records to the event log in
// dir, as a broker would, and returns the log's next offset.
func appendBulletins(t *testing.T, dir string, bs ...forecast.Bulletin) uint64 {
	t.Helper()
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		payload, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(eventlog.Record{Topic: core.TopicBulletin(b.District), Time: b.Issued, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	next := l.NextOffset()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return next
}

// plantBulletins materializes bs at offsets first, first+1, ... straight
// into the graph store in dir, bypassing the event log.
func plantBulletins(t *testing.T, dir string, first uint64, bs ...forecast.Bulletin) {
	t.Helper()
	store, err := graphlog.Open(graphlog.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	web := dissemination.NewPersistentSemanticWeb(store.Graph(), store.AddAll)
	for i, b := range bs {
		if err := web.Materialize(first+uint64(i), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// openRepaired builds a system over the two directories and returns its
// graph size once the materializer is idle.
func openRepaired(t *testing.T, logDir, graphDir string) (*System, int) {
	t.Helper()
	sys, err := NewSystem(Config{Districts: []string{"mangaung"}, LogDir: logDir, GraphDir: graphDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Error(err)
		}
	})
	sys.Middleware().Broker().DrainDispatch()
	return sys, sys.GraphStore().Graph().Len()
}

// TestRepairRemovesOrphanBulletins: graph bulletins keyed at or past the
// recovered log's next offset lost their records with the log's tail (a
// crash between the graph WAL's fsync and the event log's). Opening the
// system removes them, and the graph holds exactly the log's bulletins.
func TestRepairRemovesOrphanBulletins(t *testing.T) {
	logDir, graphDir := t.TempDir(), t.TempDir()
	bs := []forecast.Bulletin{bulletinAt("mangaung", 1), bulletinAt("mangaung", 8), bulletinAt("x", 15), bulletinAt("mangaung", 22)}
	if next := appendBulletins(t, logDir, bs[:2]...); next != 3 {
		t.Fatalf("log next offset %d, want 3", next)
	}
	plantBulletins(t, graphDir, 1, bs...) // offsets 3 and 4 are orphans

	sys, got := openRepaired(t, logDir, graphDir)
	if want := 2 * dissemination.BulletinTriples; got != want {
		t.Fatalf("graph holds %d triples after repair, want %d for 2 bulletin records", got, want)
	}
	if n := sys.orphansSwept.Load(); n != 2 {
		t.Fatalf("orphans swept = %d, want 2", n)
	}
}

// TestRepairRematerializesMissingBulletins: a bulletin record the log
// kept but the graph WAL lost (a crash between the event log's fsync and
// the graph WAL's) is materialized again when the system opens.
func TestRepairRematerializesMissingBulletins(t *testing.T) {
	logDir, graphDir := t.TempDir(), t.TempDir()
	appendBulletins(t, logDir, bulletinAt("mangaung", 1), bulletinAt("x", 8), bulletinAt("mangaung", 15))
	plantBulletins(t, graphDir, 1, bulletinAt("mangaung", 1))

	_, got := openRepaired(t, logDir, graphDir)
	if want := 3 * dissemination.BulletinTriples; got != want {
		t.Fatalf("graph holds %d triples after repair, want %d for 3 bulletin records", got, want)
	}
}

// TestRunRejectsUndecodablePayload: the forecaster reads observations and
// inferences in whatever form they arrive, so one that does not decode as
// an ssn.Record or cep.Event stops Run with an error naming the topic and
// offset, rather than being skipped. The record reaches Run as the
// retained message its subscription replays.
func TestRunRejectsUndecodablePayload(t *testing.T) {
	for _, topic := range []string{"obs/mangaung/Rainfall", "event/mangaung/RainfallDeficit"} {
		cfg := smallConfig(3)
		cfg.Years, cfg.TrainYears = 2, 1
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Middleware().Broker().Publish(core.Message{Topic: topic, Payload: json.RawMessage(`"not a record"`)}); err != nil {
			t.Fatal(err)
		}
		_, err = s.Run()
		if err == nil || !strings.Contains(err.Error(), topic) || !strings.Contains(err.Error(), "offset 1 ") {
			t.Errorf("%s: Run returned %v, want an error naming the topic and offset 1", topic, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
