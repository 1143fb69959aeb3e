package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dews"
	"repro/internal/eventlog"
	"repro/internal/loadgen"
)

// Constants of the serving workloads, identical on every commit.
const (
	// serve.paced: open loop, 100 requests/s of 10 events each — 1000
	// events/s, far below saturation, so latency is pure path latency.
	pacedInterval = 10 * time.Millisecond
	pacedBatch    = 10
	// serve.flood: closed loop, one connection, 50 events per request,
	// unpaced. The pre-rendered pool holds floodPoolEPS events per second
	// of run length; a server fast enough to drain it ends the phase
	// early and is still measured by events over elapsed time.
	floodBatch   = 50
	floodPoolEPS = 120000
	// serveSetups is how many times a serving workload starts a fresh
	// child; ready_s is the median.
	serveSetups = 15
	// drainWait bounds the wait for acked events still in flight once the
	// writer has stopped; what has not arrived by then counts as failed.
	drainWait = 5 * time.Second
	// ladderEvents caps the events a traced ladder replays per rung.
	ladderEvents = 100000
)

func runServePaced(ctx context.Context, o opts) (*result, error) {
	n := o.seconds * int(time.Second/pacedInterval)
	return runServe(ctx, o, "serve.paced", pacedBatch, genSchedule(o.seed, n, pacedInterval), n)
}

func runServeFlood(ctx context.Context, o opts) (*result, error) {
	return runServe(ctx, o, "serve.flood", floodBatch, nil, o.seconds*floodPoolEPS/floodBatch)
}

// tempDirs makes a run's durable directories under the out directory.
func tempDirs(o opts) (logDir, graphDir string, cleanup func(), err error) {
	root, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return "", "", nil, err
	}
	return filepath.Join(root, "log"), filepath.Join(root, "graph"), func() { os.RemoveAll(root) }, nil
}

// freshChild starts a child over empty directories n times and keeps
// the last one; it returns every spawn → healthy time.
func freshChild(ctx context.Context, o opts, client *http.Client, n int) (*child, []float64, func(), error) {
	var ready []float64
	for i := 0; ; i++ {
		logDir, graphDir, cleanup, err := tempDirs(o)
		if err != nil {
			return nil, nil, nil, err
		}
		c, err := startChild(ctx, client, logDir, graphDir)
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		ready = append(ready, c.readyS)
		if i == n-1 {
			return c, ready, cleanup, nil
		}
		err = c.stop()
		cleanup()
		if err != nil {
			return nil, nil, nil, err
		}
	}
}

func statNum(raw map[string]any, path ...string) float64 {
	var cur any = raw
	for _, key := range path {
		obj, _ := cur.(map[string]any)
		cur = obj[key]
	}
	v, _ := cur.(float64)
	return v
}

// statsDelta reports the /stats counters the layers expose, as the
// change over a run.
func statsDelta(before, after loadgen.StatsSnapshot) map[string]any {
	out := map[string]any{}
	for _, path := range [][]string{
		{"broker", "published"}, {"broker", "deliveries"}, {"broker", "drops"},
		{"eventlog", "appended"}, {"eventlog", "bytes"}, {"eventlog", "fsyncs"}, {"eventlog", "fsync_failures"},
		{"gateway", "sse_events_sent"}, {"gateway", "slow_disconnects"},
		{"gateway", "goodbyes", "slow_consumer"}, {"gateway", "goodbyes", "replay_failed"},
		{"extra", "semweb", "bulletin_triples"},
	} {
		key := path[0] + "." + path[len(path)-1]
		out[key] = statNum(after.Raw, path...) - statNum(before.Raw, path...)
	}
	out["eventlog.fsync_ewma_micros"] = statNum(after.Raw, "eventlog", "fsync_ewma_micros")
	return out
}

// runServe is both serving workloads: one writer connection posting the
// pre-rendered bodies (on the schedule when there is one, else closed
// loop) and one reader connection holding a live SSE subscription on
// load/#, against dews.System.ServeMux in a child process.
func runServe(ctx context.Context, o opts, name string, batch int, schedule []time.Duration, nBodies int) (*result, error) {
	r := &result{Workload: name, Seed: o.seed}
	selfCPU0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	genStart := time.Now()
	bodies := genBodies(o.seed, nBodies, batch, false)
	nEvents := nBodies * batch
	dueNS := make([]atomic.Int64, nEvents)
	d := &delivery{recvNS: make([]int64, nEvents)}
	genS := time.Since(genStart).Seconds()
	r.InputHash = inputHash(bodies, schedule, nil)

	writer, reader := newClient(), newClient()
	c, ready, cleanup, err := freshChild(ctx, o, writer, serveSetups)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer c.stop()

	before, err := loadgen.FetchStats(ctx, writer, c.base)
	if err != nil {
		return nil, err
	}
	stream, err := openSSE(ctx, reader, c.base, "load/#", 0)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readDeliveries(stream, epoch, d)
	}()

	cpu0, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var w writerResult
	runWriter(ctx, writer, c.base+"/publish", bodies, batch, schedule, time.Duration(o.seconds)*time.Second, epoch, dueNS, &w)
	for deadline := time.Now().Add(drainWait); d.received.Load() < int64(w.ackedEvents) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := loadgen.FetchStats(ctx, writer, c.base)
	if err != nil {
		return nil, err
	}
	stream.close()
	<-readerDone
	rss := peakRSSMB(c.cmd.Process.Pid)
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("child exit: %w", err)
	}

	// Oracles: every acked event delivered exactly once, in contiguous
	// offset order; the server's own counters agree; nothing dropped.
	acked := w.ackedEvents
	var deliverMS []float64
	for s := 0; s < w.attempted*batch; s++ {
		if d.recvNS[s] != 0 {
			deliverMS = append(deliverMS, float64(d.recvNS[s]-dueNS[s].Load())/1e6)
		}
	}
	undelivered := acked - len(deliverMS)
	if undelivered < 0 {
		undelivered = 0 // a request that failed client-side reached the server after all
	}
	r.Attempted = w.attempted * batch
	r.Failed = w.failed*batch + undelivered
	r.Counters = statsDelta(before, after)
	if w.failed > 0 {
		r.failf("%d of %d requests failed (first: %v)", w.failed, w.attempted, w.firstErr)
	}
	if undelivered != 0 || int(d.received.Load()) != acked {
		r.failf("acked %d events, delivered %d, %d acked but never delivered", acked, d.received.Load(), undelivered)
	}
	if d.duplicates != 0 || d.gaps != 0 {
		r.failf("%d events delivered twice, %d offset gaps on load/#", d.duplicates, d.gaps)
	}
	if d.goodbyes != 0 || (d.err != nil && d.received.Load() < int64(acked)) {
		r.failf("stream ended early: %d goodbyes, %v", d.goodbyes, d.err)
	}
	if got := after.BrokerPublished - before.BrokerPublished; got != uint64(acked) {
		r.failf("/stats published %d, client sent %d", got, acked)
	}
	for _, key := range []string{"broker.drops", "gateway.slow_disconnects", "gateway.slow_consumer", "gateway.replay_failed", "eventlog.fsync_failures"} {
		if v := r.Counters[key].(float64); v != 0 {
			r.failf("/stats %s = %v", key, v)
		}
	}

	serverCPU := cpu1 - cpu0
	selfCPU1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	readyS := median(ready)
	ackP50 := quantile(w.ackMS, 0.50)
	deliverP50 := quantile(deliverMS, 0.50)
	r.gate("setup_s", "setup_s", genS+readyS, "s")
	r.gate("ready_s", "child_ready_s", readyS, "s")
	if schedule != nil {
		r.gate("work_per_s", "delivered_eps", float64(len(deliverMS))/w.elapsed.Seconds(), "1/s")
	} else {
		r.gate("work_per_s", "acked_eps", float64(acked)/w.elapsed.Seconds(), "1/s")
	}
	r.gate("cpu_us_per_item", "server_cpu_us_per_event", serverCPU*1e6/float64(acked), "us")
	r.gate("write_p50_ms", "ack_p50_ms", ackP50, "ms")
	r.gate("read_p50_ms", "deliver_p50_ms", deliverP50, "ms")
	r.gate("read_tail_ms", "deliver_p99_ms", quantile(deliverMS, 0.99), "ms")
	r.info("gateway.sse_wait_ms", deliverP50-ackP50, "ms")
	r.info("ack_p99_ms", quantile(w.ackMS, 0.99), "ms")
	pct, v := tail(deliverMS)
	r.info(fmt.Sprintf("deliver_p%.3f_ms", pct), v, "ms")
	r.info("deliver_samples", float64(len(deliverMS)), "count")
	r.info("ack_samples", float64(len(w.ackMS)), "count")
	if schedule != nil {
		r.info("gen_late_p99_ms", quantile(w.lateMS, 0.99), "ms")
	}
	r.info("phase_s", w.elapsed.Seconds(), "s")
	r.info("server_cpu_s", serverCPU, "s")
	r.info("client_cpu_s", selfCPU1-selfCPU0, "s")
	r.info("peak_rss_mb", rss, "MB")

	if o.trace {
		if err := traceServe(o, r, bodies, batch, serverCPU/float64(acked)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// --- traced ladder ---

// wireEvent is the publish wire shape, decoded the way the gateway
// decodes it, so the lower rungs replay exactly the messages and records
// the child saw.
type wireEvent struct {
	Topic   string          `json:"topic"`
	Payload json.RawMessage `json:"payload"`
}

func decodeBodies(bodies [][]byte) (msgs [][]core.Message, recs [][]eventlog.Record, err error) {
	now := time.Now()
	for _, body := range bodies {
		var evs []wireEvent
		if err := json.Unmarshal(body, &evs); err != nil {
			return nil, nil, err
		}
		bm := make([]core.Message, len(evs))
		rs := make([]eventlog.Record, len(evs))
		for i, ev := range evs {
			var payload any
			if err := json.Unmarshal(ev.Payload, &payload); err != nil {
				return nil, nil, err
			}
			bm[i] = core.Message{Topic: ev.Topic, Time: now, Payload: payload}
			rs[i] = eventlog.Record{Topic: ev.Topic, Time: now, Payload: ev.Payload}
		}
		msgs, recs = append(msgs, bm), append(recs, rs)
	}
	return msgs, recs, nil
}

// traceServe replays the run's first bodies through a ladder, one rung
// per layer boundary, each rung a separate pass that goes one layer
// higher than the one below: log append, broker publish + poll over
// that log, the gateway's handler on a recorder, the same handler behind
// a loopback HTTP server, and finally with a live SSE reader attached.
// A rung's self time is its total minus the rung below. The root is the
// child's measured CPU for the same number of events.
func traceServe(o opts, r *result, bodies [][]byte, batch int, cpuPerEvent float64) (err error) {
	if max := ladderEvents / batch; len(bodies) > max {
		bodies = bodies[:max]
	}
	nEvents := len(bodies) * batch
	msgs, recs, err := decodeBodies(bodies)
	if err != nil {
		return err
	}
	tr := newTracer(r.Workload, o.seed, "server.cpu")
	tr.add("server.cpu", "", time.Duration(cpuPerEvent*float64(nEvents)*float64(time.Second)), nEvents)
	ladderStart := time.Now()
	ctx := context.Background()

	// Rung 1: eventlog.append.
	logDir, _, cleanup, err := tempDirs(o)
	if err != nil {
		return err
	}
	defer cleanup()
	log, err := eventlog.Open(eventlog.Config{Dir: logDir})
	if err != nil {
		return err
	}
	for _, batchRecs := range recs {
		sp := tr.start("eventlog.append", "core.broker.publish")
		_, n, err := log.AppendBatch(batchRecs)
		sp.end(len(batchRecs), n, 0)
		if err != nil {
			return errors.Join(err, log.Close())
		}
	}
	if err := log.Close(); err != nil {
		return err
	}

	// Rung 2: core.broker.publish — PublishBatch through an attached log
	// into one load/# subscription, polled per batch; and the same without
	// a log, reported beside the ladder.
	for _, durable := range []bool{false, true} {
		broker := core.NewBroker()
		name, parent := "core.broker.publish_mem", ""
		var log *eventlog.Log
		if durable {
			name, parent = "core.broker.publish", "gateway.publish"
			dir, _, cleanup, err := tempDirs(o)
			if err != nil {
				return err
			}
			defer cleanup()
			if log, err = eventlog.Open(eventlog.Config{Dir: dir}); err != nil {
				return err
			}
			if _, err := broker.AttachLog(log); err != nil {
				return errors.Join(err, log.Close())
			}
		}
		sub, err := broker.Subscribe("load/#", 4096, core.DropOldest)
		if err != nil {
			return err
		}
		for _, batchMsgs := range msgs {
			sp := tr.start(name, parent)
			_, err := broker.PublishBatch(batchMsgs)
			polled := len(sub.Poll(0))
			sp.end(len(batchMsgs), polled, len(batchMsgs)-polled)
			if err != nil {
				return err
			}
		}
		if log != nil {
			if err := log.Close(); err != nil {
				return err
			}
		}
	}

	// Rungs 3-5 run the real assembly in-process.
	assembly := func() (*dews.System, *http.ServeMux, *core.Subscription, func() error, error) {
		logDir, graphDir, cleanup, err := tempDirs(o)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sys, err := dews.NewSystem(dews.Config{LogDir: logDir, GraphDir: graphDir})
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		mux, gw, err := sys.ServeMux()
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, errors.Join(err, sys.Close())
		}
		sub, err := sys.Middleware().Broker().Subscribe("load/#", 4096, core.DropOldest)
		closeAll := func() error {
			err := errors.Join(gw.Close(), sys.Close())
			cleanup()
			return err
		}
		return sys, mux, sub, closeAll, err
	}

	// Rung 3: gateway.publish — the handler on a recorder.
	_, mux, sub, closeAll, err := assembly()
	if err != nil {
		return err
	}
	for _, body := range bodies {
		sp := tr.start("gateway.publish", "http.loopback")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish", bytes.NewReader(body)))
		polled := len(sub.Poll(0))
		sp.end(batch, polled, batch-polled)
		if rec.Code != http.StatusOK {
			return errors.Join(fmt.Errorf("gateway.publish rung: status %d", rec.Code), closeAll())
		}
	}
	if err := closeAll(); err != nil {
		return err
	}

	// Rung 4: http.loopback — the same requests over a loopback server.
	_, mux, sub, closeAll, err = assembly()
	if err != nil {
		return err
	}
	srv := httptest.NewServer(mux)
	client := newClient()
	for _, body := range bodies {
		sp := tr.start("http.loopback", "gateway.sse")
		err := post(ctx, client, srv.URL+"/publish", body)
		polled := len(sub.Poll(0))
		sp.end(batch, polled, batch-polled)
		if err != nil {
			srv.Close()
			return errors.Join(err, closeAll())
		}
	}
	client.CloseIdleConnections()
	srv.Close()
	if err := closeAll(); err != nil {
		return err
	}

	// Rung 5: gateway.sse — the same again with a live SSE reader in
	// place of the polled subscription; the span covers posting every
	// body and reading every frame.
	sys, mux, sub, closeAll, err := assembly()
	if err != nil {
		return err
	}
	sys.Middleware().Broker().Unsubscribe(sub)
	srv = httptest.NewServer(mux)
	reader := newClient()
	stream, err := openSSE(ctx, reader, srv.URL, "load/#", 0)
	if err != nil {
		srv.Close()
		return errors.Join(err, closeAll())
	}
	d := &delivery{recvNS: make([]int64, nEvents)}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		readDeliveries(stream, time.Now(), d)
	}()
	sp := tr.start("gateway.sse", "server.cpu")
	for _, body := range bodies {
		if err = post(ctx, client, srv.URL+"/publish", body); err != nil {
			break
		}
	}
	for deadline := time.Now().Add(drainWait); err == nil && d.received.Load() < int64(nEvents) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	delivered := int(d.received.Load())
	sp.end(nEvents, delivered, nEvents-delivered)
	stream.close()
	<-readerDone
	client.CloseIdleConnections()
	reader.CloseIdleConnections()
	srv.Close()
	if err = errors.Join(err, closeAll()); err != nil {
		return err
	}
	if delivered != nEvents {
		r.failf("gateway.sse rung delivered %d of %d events", delivered, nEvents)
	}
	return finishTrace(tr, o, r, time.Since(ladderStart))
}
