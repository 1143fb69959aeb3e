package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cep"
	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/dews"
	"repro/internal/dissemination"
	"repro/internal/forecast"
	"repro/internal/ik"
	"repro/internal/ontology/drought"
	"repro/internal/ontology/ssn"
	"repro/internal/wsn"
)

// simConfig is the sim.batch input: the paper's whole pipeline over five
// districts × 8 nodes and six simulated years, three of them training —
// about 440k readings, 3 s on the reference box.
func simConfig(o opts) dews.Config {
	return dews.Config{Seed: o.seed, NodesPerDistrict: 8, Years: 6, TrainYears: 3}
}

// simSegments is how many times sim.batch runs that simulation back to
// back, four per ten seconds of run length. Every metric is the median
// over the segments: the box's throughput wanders by ±5% on a scale of
// seconds, and one long run reports wherever it happened to land.
func simSegments(o opts) int {
	if n := 4 * o.seconds / 10; n > 1 {
		return n
	}
	return 1
}

// simRun is one untraced System.Run with the two timing taps.
type simRun struct {
	res    *dews.Result
	builds []float64 // every NewSystem, seconds
	firstS float64   // Run start → first bulletin on the broker, seconds
	wall   time.Duration
	cpuS   float64
	dayMS  []float64 // wall time of each daily pipeline cycle
	weeks  []float64 // wall time between consecutive weekly bulletins, ms
}

// simBuilds is how often each segment builds the system before running
// the last build; a build takes 5 ms, and single timings of it vary by a
// third.
const simBuilds = 25

// runSystem builds the system and executes Run once. Two push
// subscribers on the system's own broker — one district's rainfall
// observations and its bulletins, under 1% of the traffic — time the
// daily cycle and the weekly bulletin cadence from outside without
// touching Run.
func runSystem(cfg dews.Config) (*simRun, error) {
	sr := &simRun{}
	var sys *dews.System
	for i := 0; i < simBuilds; i++ {
		start := time.Now()
		s, err := dews.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		sr.builds = append(sr.builds, time.Since(start).Seconds())
		sys = s
	}
	district := strings.ToLower(drought.Districts[0].LocalName())
	broker := sys.Middleware().Broker()
	broker.StartDispatch(1)
	var lastDay, dayStart, weekStart, runStart time.Time
	// Both handlers run on the dispatcher's single worker, so they share
	// state without a lock; StopDispatch joins it before the caller reads.
	if _, err := broker.SubscribeHandler(core.TopicObservation(district, "Rainfall"), 4096, core.DropOldest, func(m core.Message) {
		day := m.Time.Truncate(24 * time.Hour)
		if !day.After(lastDay) {
			return // same day, or a late frame the lossy uplink reordered
		}
		now := time.Now()
		if !lastDay.IsZero() {
			sr.dayMS = append(sr.dayMS, ms(now.Sub(dayStart))/day.Sub(lastDay).Hours()*24)
		}
		lastDay, dayStart = day, now
	}); err != nil {
		return nil, err
	}
	if _, err := broker.SubscribeHandler(core.TopicBulletin(district), 4096, core.DropOldest, func(core.Message) {
		now := time.Now()
		if weekStart.IsZero() {
			sr.firstS = now.Sub(runStart).Seconds()
		} else {
			sr.weeks = append(sr.weeks, ms(now.Sub(weekStart)))
		}
		weekStart = now
	}); err != nil {
		return nil, err
	}
	cpu0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	runStart = time.Now()
	sr.res, err = sys.Run()
	sr.wall = time.Since(runStart)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	sr.cpuS = cpu1 - cpu0
	broker.StopDispatch()
	return sr, sys.Close()
}

func runSim(ctx context.Context, o opts) (*result, error) {
	cfg := simConfig(o)
	r := &result{Workload: "sim.batch", Seed: o.seed}
	var first *simRun
	var build, firstS, rate, cpu, dayP50, weekP50, weekP90 []float64
	for i := 0; i < simSegments(o) && ctx.Err() == nil; i++ {
		sr, err := runSystem(cfg)
		if err != nil {
			return nil, err
		}
		res := sr.res
		r.Attempted += res.Fetched
		r.Failed += res.Failed
		if first == nil {
			first = sr
		} else if a, b := first.res, res; a.Fetched != b.Fetched || a.Annotated != b.Annotated || a.Inferences != b.Inferences || len(a.Bulletins) != len(b.Bulletins) {
			r.failf("segment %d counts differ from segment 1 on the same seed", i+1)
		}
		if res.Fetched != res.Annotated+res.Failed {
			r.failf("fetched %d != annotated %d + failed %d", res.Fetched, res.Annotated, res.Failed)
		}
		if res.Failed != 0 {
			r.failf("%d mediation failures", res.Failed)
		}
		if res.Hub.Received != len(res.Bulletins) {
			r.failf("hub received %d bulletins, %d issued", res.Hub.Received, len(res.Bulletins))
		}
		fused, _ := res.SkillByName("fused")
		clim, _ := res.SkillByName("climatology")
		if !(fused.Brier.Score() < clim.Brier.Score()) {
			r.failf("fused Brier %.4f not below climatology %.4f", fused.Brier.Score(), clim.Brier.Score())
		}
		if len(sr.dayMS) < 100 || len(sr.weeks) < 20 {
			r.failf("timing taps saw %d days and %d weekly bulletins", len(sr.dayMS), len(sr.weeks))
		}
		build = append(build, sr.builds...)
		firstS = append(firstS, sr.firstS)
		rate = append(rate, float64(res.Fetched)/sr.wall.Seconds())
		cpu = append(cpu, sr.cpuS*1e6/float64(res.Fetched))
		dayP50 = append(dayP50, quantile(sr.dayMS, 0.50))
		weekP50 = append(weekP50, quantile(sr.weeks, 0.50))
		weekP90 = append(weekP90, quantile(sr.weeks, 0.90))
	}
	if first == nil {
		return nil, ctx.Err()
	}

	r.gate("setup_s", "setup_s", median(build), "s")
	r.gate("ready_s", "first_bulletin_s", median(build)+median(firstS), "s")
	r.gate("work_per_s", "sim_readings_per_s", median(rate), "1/s")
	r.gate("cpu_us_per_item", "cpu_us_per_reading", median(cpu), "us")
	r.gate("write_p50_ms", "day_cycle_p50_ms", median(dayP50), "ms")
	r.gate("read_p50_ms", "bulletin_interval_p50_ms", median(weekP50), "ms")
	// Weekly intervals above the 90th percentile are garbage-collector
	// pauses and vary threefold between runs of the same code.
	r.gate("read_tail_ms", "bulletin_interval_p90_ms", median(weekP90), "ms")
	r.info("segments", float64(len(rate)), "count")
	r.info("readings", float64(first.res.Fetched), "count")
	r.info("inferences", float64(first.res.Inferences), "count")
	r.info("bulletins", float64(len(first.res.Bulletins)), "count")
	r.info("client_cpu_s", median(cpu)*float64(first.res.Fetched)/1e6, "s")
	r.info("peak_rss_mb", peakRSSMB(os.Getpid()), "MB")

	if o.trace {
		if err := traceSim(cfg, o, r, first); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// --- traced ladder ---

// simDistrict is one district's simulation machinery, wired exactly as
// dews.NewSystem wires it (same seeds, same link parameters) from the
// layers' exported constructors.
type simDistrict struct {
	name      string
	gen       *climate.Generator
	days      []climate.Day
	nodes     []*wsn.Node
	uplink    *wsn.Gateway
	reports   []ik.Report
	reportIdx int
	events    *core.Subscription
	// rain90 is a ring of the last 90 daily rainfall means, latest the
	// newest daily mean per observed property, cepSignals the inferences
	// seen so far. Together they stand in for the unexported feature
	// builder.
	rain90            [90]float64
	latest            map[string]float64
	climRainDaily     float64
	cepSignals        int
	lastCEPConfidence float64
}

// simPipeline is the same stack as dews.System, held open so each stage
// can be called — and timed — on its own.
type simPipeline struct {
	cfg       dews.Config
	mw        *core.Middleware
	hub       *dissemination.Hub
	districts []*simDistrict
	obs       *core.Subscription
}

func newSimPipeline(cfg dews.Config) (*simPipeline, error) {
	onto, _, err := drought.BuildMaterialized()
	if err != nil {
		return nil, err
	}
	rules, err := cep.ParseRules(dews.SensorRules)
	if err != nil {
		return nil, err
	}
	ikRules, err := ik.CompileRules(ik.Catalogue())
	if err != nil {
		return nil, err
	}
	mw, err := core.New(core.Config{Ontology: onto, Rules: append(rules, ikRules...)})
	if err != nil {
		return nil, err
	}
	mw.Broker().SetRetainedLimit(8192)
	p := &simPipeline{cfg: cfg, mw: mw, hub: dissemination.NewHub()}
	sms := dissemination.NewSMSBroadcast()
	for _, reg := range []struct {
		ch  dissemination.Channel
		min forecast.DVIBand
	}{
		{dissemination.NewSmartBillboard(), forecast.DVINormal},
		{sms, forecast.DVIWarning},
		{dissemination.NewIPRadio("st"), forecast.DVIWatch},
		{dissemination.NewSemanticWeb(), forecast.DVINormal},
	} {
		if err := p.hub.Register(reg.ch, reg.min); err != nil {
			return nil, err
		}
	}
	for di, iri := range drought.Districts {
		name := strings.ToLower(iri.LocalName())
		seed := cfg.Seed + int64(di)*101
		gen, err := climate.NewGenerator(climate.DefaultParams(seed))
		if err != nil {
			return nil, err
		}
		cloud := wsn.NewCloudStore()
		link := wsn.NewLink(wsn.LinkConfig{LossRate: 0.15, CorruptRate: 0.03, MaxRetries: 4, Seed: seed + 1})
		uplink := wsn.NewGateway(link, cloud)
		fleet, err := wsn.NewFleet(cfg.NodesPerDistrict, []string{name}, seed+2)
		if err != nil {
			return nil, err
		}
		for _, n := range fleet.Nodes {
			uplink.Register(n)
		}
		if err := mw.Protocol().AddSource("cloud-"+name, cloud); err != nil {
			return nil, err
		}
		if err := sms.Subscribe(name, fmt.Sprintf("+27-51-%04d", di)); err != nil {
			return nil, err
		}
		events, err := mw.Broker().Subscribe("event/"+name+"/#", 65536, core.DropOldest)
		if err != nil {
			return nil, err
		}
		p.districts = append(p.districts, &simDistrict{
			name: name, gen: gen, nodes: fleet.Nodes, uplink: uplink, events: events, latest: map[string]float64{},
		})
	}
	p.obs, err = mw.Broker().Subscribe("obs/#", 1<<20, core.DropOldest)
	return p, err
}

// simCounts is what the ladder must reproduce exactly from the same
// seed: it proves the stages timed are the stages Run executes.
type simCounts struct {
	fetched, annotated, failed, inferences, bulletins int
}

// generate is Run's phase 1: climate, ground truth and IK reports.
func (p *simPipeline) generate(tr *tracer) error {
	totalDays, trainDays := 365*p.cfg.Years, 365*p.cfg.TrainYears
	for _, d := range p.districts {
		sp := tr.start("climate.generate", "dews.run")
		d.days = d.gen.GenerateDays(totalDays)
		truth, err := climate.Label(d.days, 90)
		sp.end(totalDays, totalDays, 0)
		if err != nil {
			return err
		}

		sp = tr.start("ik.generate", "dews.run")
		pool, err := ik.NewInformantPool(8, p.cfg.Seed+int64(len(d.name)))
		if err != nil {
			return err
		}
		d.reports, err = ik.GenerateReports(ik.GeneratorConfig{Pool: pool, District: d.name, ReportRate: 0.02, Seed: p.cfg.Seed + 7}, d.days, truth)
		if err != nil {
			return err
		}
		cut := d.days[0].Date.AddDate(0, 0, trainDays)
		var train []ik.Report
		for _, rep := range d.reports {
			if rep.Time.Before(cut) {
				train = append(train, rep)
			}
		}
		_, err = ik.ScoreReports(train, d.days, truth, p.mw.IKTracker())
		sp.end(totalDays, len(d.reports), 0)
		if err != nil {
			return err
		}
		sum := 0.0
		for _, day := range d.days[:trainDays] {
			sum += day.RainMM
		}
		d.climRainDaily = sum / float64(trainDays)
	}
	return nil
}

// uplink is Run's step 3a: every node samples the day and uploads
// through the lossy link to its district's cloud store.
func (p *simPipeline) uplink(tr *tracer, dayIdx int) error {
	sp := tr.start("wsn.uplink", "dews.run")
	sampled, dropped := 0, 0
	for _, d := range p.districts {
		before := d.uplink.Dropped
		for _, n := range d.nodes {
			if rs := n.Sample(d.days[dayIdx]); len(rs) > 0 {
				sampled += len(rs)
				if err := d.uplink.Ingest(rs); err != nil {
					return err
				}
			}
		}
		dropped += d.uplink.Dropped - before
	}
	sp.end(sampled, sampled, dropped)
	return nil
}

// ingestStages is Middleware.Ingest taken apart: the same exported calls
// in the same order, each under its own span. CEP runs its district
// shards one after the other here (Ingest runs them on GOMAXPROCS
// goroutines), so cep.process is CPU time, not wall time.
func (p *simPipeline) ingestStages(tr *tracer, c *simCounts) error {
	sp := tr.start("core.protocol.fetch", "core.ingest")
	raw, err := p.mw.Protocol().FetchAll(0)
	sp.end(len(raw), len(raw), 0)
	if err != nil {
		return err
	}
	c.fetched += len(raw)

	sp = tr.start("mediator.annotate", "core.ingest")
	records, failed := p.mw.Segment().Annotator().AnnotateBatch(raw)
	sp.end(len(raw), len(records), failed)
	c.annotated += len(records)
	c.failed += failed

	sp = tr.start("core.broker.publish", "core.ingest")
	msgs := make([]core.Message, len(records))
	byDistrict := map[string][]cep.Event{}
	for i, rec := range records {
		d := strings.ToLower(rec.Feature.LocalName())
		msgs[i] = core.Message{
			Topic:   core.TopicObservation(d, rec.Property.LocalName()),
			Time:    rec.Time,
			Payload: rec,
			Headers: map[string]string{"unit": rec.Unit.LocalName()},
		}
		byDistrict[d] = append(byDistrict[d], cep.Event{
			Type: rec.Property.LocalName(), Time: rec.Time, Value: rec.Value, Confidence: rec.Quality, Key: d,
		})
	}
	deliveries, err := p.mw.Broker().PublishBatch(msgs)
	sp.end(len(msgs), deliveries, 0)
	if err != nil {
		return err
	}

	order := make([]string, 0, len(byDistrict))
	for d := range byDistrict {
		order = append(order, d)
	}
	sort.Strings(order)
	for _, d := range order {
		sp = tr.start("cep.process", "core.ingest")
		eng, err := p.mw.Segment().CEPEngine(d)
		if err != nil {
			return err
		}
		var emitted []cep.Event
		outOfOrder := 0
		for _, ev := range byDistrict[d] {
			out, err := eng.Process(ev)
			if errors.Is(err, cep.ErrOutOfOrder) {
				outOfOrder++
				continue
			}
			if err != nil {
				return err
			}
			emitted = append(emitted, out...)
		}
		sp.end(len(byDistrict[d]), len(emitted), outOfOrder)
		c.inferences += len(emitted)
		if len(emitted) == 0 {
			continue
		}
		sp = tr.start("core.broker.publish", "core.ingest")
		inferred := make([]core.Message, len(emitted))
		for i, ev := range emitted {
			inferred[i] = core.Message{
				Topic:   core.TopicEvent(d, ev.Type),
				Time:    ev.Time,
				Payload: ev,
				Headers: map[string]string{"severity": ev.Attrs["severity"], "rule": ev.Attrs["rule"]},
			}
		}
		deliveries, err := p.mw.Broker().PublishBatch(inferred)
		sp.end(len(inferred), deliveries, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// publishIK is Run's step 3c.
func (p *simPipeline) publishIK(tr *tracer, dayIdx int) error {
	for _, d := range p.districts {
		today := d.days[dayIdx].Date
		var due []ik.Report
		for d.reportIdx < len(d.reports) && !d.reports[d.reportIdx].Time.After(today) {
			due = append(due, d.reports[d.reportIdx])
			d.reportIdx++
		}
		if len(due) == 0 {
			continue
		}
		sp := tr.start("ik.publish", "dews.run")
		inferences, err := p.mw.PublishIKReports(due)
		sp.end(len(due), inferences, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// poll is Run's step 3d: the feature side drains the day's messages
// into daily means per district and property.
func (p *simPipeline) poll(tr *tracer, dayIdx int) {
	sp := tr.start("core.broker.poll", "dews.run")
	polled := 0
	type agg struct{ sum, n float64 }
	today := map[string]agg{} // by "<district>/<property>"
	for _, m := range p.obs.Poll(0) {
		polled++
		if rec, ok := m.Payload.(ssn.Record); ok {
			key := strings.TrimPrefix(m.Topic, "obs/")
			a := today[key]
			today[key] = agg{a.sum + rec.Value, a.n + 1}
		}
	}
	for _, d := range p.districts {
		d.rain90[dayIdx%90] = 0
		for _, prop := range []string{"Rainfall", "SoilMoisture", "NDVI", "AirTemperature"} {
			if a, ok := today[d.name+"/"+prop]; ok {
				d.latest[prop] = a.sum / a.n
				if prop == "Rainfall" {
					d.rain90[dayIdx%90] = a.sum / a.n
				}
			}
		}
		for _, m := range d.events.Poll(0) {
			polled++
			if ev, ok := m.Payload.(cep.Event); ok {
				d.cepSignals++
				d.lastCEPConfidence = ev.Confidence
			}
		}
	}
	sp.end(polled, polled, 0)
}

// features approximates the system's feature vector from the polled
// means (the real builder is unexported); the forecast stage makes the
// same calls either way.
func (d *simDistrict) features(dayIdx int) forecast.Features {
	sum30, sum90 := 0.0, 0.0
	for i, v := range d.rain90 {
		sum90 += v
		if (dayIdx-i+90)%90 < 30 {
			sum30 += v
		}
	}
	return forecast.Features{
		Date:      d.days[dayIdx].Date,
		RainSum30: sum30, RainSum90: sum90,
		ClimRain30: 30 * d.climRainDaily, ClimRain90: 90 * d.climRainDaily,
		SoilMoisture: d.latest["SoilMoisture"], NDVI: d.latest["NDVI"], TempAnomaly: d.latest["AirTemperature"] - 18,
		CEPDrySignals: d.cepSignals, CEPConfidence: d.lastCEPConfidence,
	}
}

// ladder replays the run day by day through the separate stages.
func (p *simPipeline) ladder(tr *tracer) (simCounts, error) {
	var c simCounts
	if err := p.generate(tr); err != nil {
		return c, err
	}
	totalDays, trainDays, lead := 365*p.cfg.Years, 365*p.cfg.TrainYears, 30
	sensor := forecast.SensorStat{Intercept: -1}
	ikOnly := forecast.IKOnly{BaseRate: 0.1}
	forecasters := []forecast.Forecaster{
		forecast.Climatology{BaseRate: 0.1}, forecast.Persistence{}, &sensor, ikOnly,
		forecast.Fused{Sensor: sensor, IK: ikOnly},
	}
	var trainFeatures []forecast.Features
	for dayIdx := 0; dayIdx < totalDays; dayIdx++ {
		if err := p.uplink(tr, dayIdx); err != nil {
			return c, err
		}
		if err := p.ingestStages(tr, &c); err != nil {
			return c, err
		}
		if err := p.publishIK(tr, dayIdx); err != nil {
			return c, err
		}
		p.poll(tr, dayIdx)

		sp := tr.start("forecast.issue", "dews.run")
		var bulletins []forecast.Bulletin
		issued := 0
		for _, d := range p.districts {
			f := d.features(dayIdx)
			if dayIdx < trainDays {
				if dayIdx >= 120 {
					trainFeatures = append(trainFeatures, f)
				}
				continue
			}
			if dayIdx == trainDays {
				sensor.Calibrate(trainFeatures, 0.1)
				forecasters[4] = forecast.Fused{Sensor: sensor, IK: ikOnly}
			}
			if dayIdx+lead >= totalDays {
				continue
			}
			for _, fc := range forecasters {
				_ = fc.Forecast(f)
				issued++
			}
			if dayIdx%7 == 0 {
				bulletins = append(bulletins, forecast.MakeBulletin(d.name, f, forecasters[4], lead))
			}
		}
		sp.end(len(p.districts), issued, 0)

		if len(bulletins) > 0 {
			sp = tr.start("dissemination.publish", "dews.run")
			for _, b := range bulletins {
				if err := p.hub.Publish(b); err != nil {
					return c, err
				}
				if _, err := p.mw.Broker().Publish(core.Message{
					Topic: core.TopicBulletin(b.District), Time: b.Issued, Payload: b,
					Headers: map[string]string{"band": b.Band.String()},
				}); err != nil {
					return c, err
				}
			}
			sp.end(len(bulletins), p.hub.Stats().Received-c.bulletins, 0)
			c.bulletins += len(bulletins)
		}
	}
	return c, nil
}

// ingestWhole is the parent rung: the same days through Middleware.Ingest
// in one call, so core.ingest minus its four stages is the glue, the
// shard fan-out and the garbage collector's share.
func (p *simPipeline) ingestWhole(tr *tracer) (simCounts, error) {
	var c simCounts
	// Generation and uplink were traced by the ladder already.
	if err := p.generate(nil); err != nil {
		return c, err
	}
	for dayIdx := 0; dayIdx < 365*p.cfg.Years; dayIdx++ {
		if err := p.uplink(nil, dayIdx); err != nil {
			return c, err
		}
		sp := tr.start("core.ingest", "dews.run")
		rep, err := p.mw.Ingest(0)
		sp.end(rep.Fetched, rep.Annotated+rep.Inferences, rep.Failed+rep.OutOfOrder)
		if err != nil {
			return c, err
		}
		c.fetched += rep.Fetched
		c.annotated += rep.Annotated
		c.failed += rep.Failed
		p.obs.Poll(0)
		for _, d := range p.districts {
			d.events.Poll(0)
		}
	}
	return c, nil
}

// traceSim runs the two ladder passes over the run's own inputs and
// reconciles them with the untraced Run.
func traceSim(cfg dews.Config, o opts, r *result, sr *simRun) error {
	tr := newTracer(r.Workload, o.seed, "dews.run")
	tr.add("dews.run", "", sr.wall, sr.res.Fetched)

	ladderStart := time.Now()
	p, err := newSimPipeline(cfg)
	if err != nil {
		return err
	}
	got, err := p.ladder(tr)
	if err != nil {
		return err
	}
	ladderWall := time.Since(ladderStart)
	want := simCounts{sr.res.Fetched, sr.res.Annotated, sr.res.Failed, sr.res.Inferences, len(sr.res.Bulletins)}
	if got != want {
		r.failf("ladder counts %+v differ from the untraced run's %+v", got, want)
	}

	p, err = newSimPipeline(cfg)
	if err != nil {
		return err
	}
	whole, err := p.ingestWhole(tr)
	if err != nil {
		return err
	}
	if whole.fetched != sr.res.Fetched || whole.annotated != sr.res.Annotated {
		r.failf("Ingest pass fetched %d annotated %d, untraced run %d and %d",
			whole.fetched, whole.annotated, sr.res.Fetched, sr.res.Annotated)
	}
	return finishTrace(tr, o, r, ladderWall)
}
