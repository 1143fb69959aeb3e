package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dews"
	"repro/internal/dissemination"
	"repro/internal/eventlog"
	"repro/internal/graphlog"
	"repro/internal/loadgen"
	"repro/internal/loadgen/oracle"
	"repro/internal/sparql"
)

// Constants of restart.readers, identical on every commit.
const (
	// The writer beside the readers: ?sync=1 batches of 10 at 50
	// requests/s, from the first replay pass to the last query.
	syncInterval = 20 * time.Millisecond
	syncBatch    = 10
	// syncBodies bounds the writer's pre-rendered schedule (60 s).
	syncBodies = 3000
	// replayPasses is how often the reader resumes obs/# from offset 1;
	// replay_eps is the median pass.
	replayPasses = 3
	// restartSetups is how many times the durable simulation that fills
	// the directories runs; setup_s is the median.
	restartSetups = 2
	// ladderRounds is how many rounds of the query mix the traced ladder
	// evaluates.
	ladderRounds = 20
)

// restartConfig is the durable simulation behind restart.readers: the
// default fleet, 0.8 simulated years per second of run length (8 years
// ≈ 300k log records, 150 MB, 6k bulletin triples at the default 10 s).
func restartConfig(o opts, logDir, graphDir string) dews.Config {
	years := 8 * o.seconds / 10
	if years < 2 {
		years = 2
	}
	return dews.Config{Seed: o.seed, Years: years, TrainYears: years / 2, LogDir: logDir, GraphDir: graphDir}
}

// durableSim fills fresh directories with one durable pipeline run.
func durableSim(o opts) (res *dews.Result, logDir, graphDir string, cleanup func(), took time.Duration, err error) {
	logDir, graphDir, cleanup, err = tempDirs(o)
	if err != nil {
		return nil, "", "", nil, 0, err
	}
	start := time.Now()
	sys, err := dews.NewSystem(restartConfig(o, logDir, graphDir))
	if err == nil {
		res, err = sys.Run()
		err = errors.Join(err, sys.Close())
	}
	if err != nil {
		cleanup()
		return nil, "", "", nil, 0, err
	}
	return res, logDir, graphDir, cleanup, time.Since(start), nil
}

// replayPass resumes obs/# from offset 1 and reads want records.
func replayPass(ctx context.Context, client *http.Client, base string, want int) (time.Duration, error) {
	start := time.Now()
	stream, err := openSSE(ctx, client, base, "obs/#", 1)
	if err != nil {
		return 0, err
	}
	defer stream.close()
	var last uint64
	for got := 0; got < want; {
		event, offset, _, err := stream.next()
		if err != nil {
			return 0, fmt.Errorf("replay ended after %d of %d records: %w", got, want, err)
		}
		if event != "message" {
			return 0, fmt.Errorf("replay got %q after %d of %d records", event, got, want)
		}
		if offset <= last {
			return 0, fmt.Errorf("replay offset %d after %d", offset, last)
		}
		last = offset
		got++
	}
	return time.Since(start), nil
}

// resultRows counts the rows of the semantic-web channel's text answer:
// a SELECT prints a header line and one line per row, an ASK one line.
func resultRows(body []byte) int {
	return bytes.Count(body, []byte{'\n'}) - 1
}

func runRestart(ctx context.Context, o opts) (*result, error) {
	r := &result{Workload: "restart.readers", Seed: o.seed}
	selfCPU0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Set-up: the durable pipeline's cost.
	genStart := time.Now()
	bodies := genBodies(o.seed, syncBodies, syncBatch, true)
	mix := sparqlMix
	schedule := genSchedule(o.seed, syncBodies, syncInterval)
	genS := time.Since(genStart).Seconds()
	r.InputHash = inputHash(bodies, schedule, mix)
	var res *dews.Result
	var logDir, graphDir string
	var setups []float64
	for i := 0; i < restartSetups; i++ {
		var cleanup func()
		var took time.Duration
		res, logDir, graphDir, cleanup, took, err = durableSim(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < restartSetups-1 {
			cleanup()
		} else {
			defer cleanup()
		}
	}

	// (a) restart: spawn a server over the filled directories.
	writer, reader := newClient(), newClient()
	c, err := startChild(ctx, writer, logDir, graphDir)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	before, err := loadgen.FetchStats(ctx, writer, c.base)
	if err != nil {
		return nil, err
	}

	// The fsync-waiting writer runs beside (b) and (c).
	var w writerResult
	writerCtx, stopWriter := context.WithCancel(ctx)
	defer stopWriter()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		runWriter(writerCtx, writer, c.base+"/publish?sync=1", bodies, syncBatch, schedule, time.Hour, time.Now(), nil, &w)
	}()

	// (b) replay: the log-tail SSE path, from offset 1 to the tail.
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var passEPS []float64
	replayFailed := 0
	for i := 0; i < replayPasses; i++ {
		took, err := replayPass(ctx, reader, c.base, res.Annotated)
		if err != nil {
			r.failf("replay pass %d: %v", i+1, err)
			replayFailed++
			continue
		}
		passEPS = append(passEPS, float64(res.Annotated)/took.Seconds())
	}
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}

	// (c) query: the fixed mix, round-robin, closed loop.
	var roundMS []float64
	rows := make([]int, len(mix))
	queries, queryFailed := 0, 0
	queryStart := time.Now()
	for time.Since(queryStart) < time.Duration(o.seconds)*time.Second && ctx.Err() == nil {
		roundStart := time.Now()
		for i, q := range mix {
			queries++
			body, err := get(ctx, reader, c.base+"/semweb/sparql?query="+url.QueryEscape(q))
			if err != nil {
				queryFailed++
				r.failf("query %d: %v", i, err)
				continue
			}
			if n := resultRows(body); rows[i] != 0 && rows[i] != n {
				queryFailed++
				r.failf("query %d returned %d rows, earlier %d", i, n, rows[i])
			} else {
				rows[i] = n
			}
		}
		roundMS = append(roundMS, ms(time.Since(roundStart)))
	}
	queryS := time.Since(queryStart).Seconds()
	cpu2, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	stopWriter()
	<-writerDone
	after, err := loadgen.FetchStats(ctx, reader, c.base)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB(c.cmd.Process.Pid)
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("child exit: %w", err)
	}

	// Oracles on the directories, reopened cold.
	r.Counters = statsDelta(before, after)
	r.Attempted = w.attempted*syncBatch + replayPasses*res.Annotated + queries
	r.Failed = w.failed*syncBatch + replayFailed*res.Annotated + queryFailed
	if w.failed > 0 {
		r.failf("%d of %d sync requests failed (first: %v)", w.failed, w.attempted, w.firstErr)
	}
	facts, err := oracle.ScanLog(logDir)
	if err != nil {
		return nil, err
	}
	if !facts.Contiguous || facts.NextOffset != before.NextOffset+uint64(w.ackedEvents) {
		r.failf("reopened log: contiguous=%v next offset %d, want %d recovered + %d acked",
			facts.Contiguous, facts.NextOffset, before.NextOffset, w.ackedEvents)
	}
	acked := make(map[string]struct{}, w.ackedEvents)
	for s := 0; s < w.ackedEvents; s++ { // no request failed, so the acked seqs are the first ones
		acked[idPrefix+strconv.Itoa(s)] = struct{}{}
	}
	if w.failed == 0 {
		if dur := oracle.CheckDurability(facts, acked, nil); !dur.OK() {
			r.failf("sync-acked events missing from the reopened log: %+v", dur)
		}
	}
	if int(facts.Bulletins) != len(res.Bulletins) {
		r.failf("log holds %d bulletin records, run issued %d", facts.Bulletins, len(res.Bulletins))
	}
	graph, err := oracle.CheckGraph(graphDir, facts)
	if err != nil {
		return nil, err
	}
	if !graph.Parity {
		r.failf("bulletin graph: %d triples for %d bulletins, want %d each", graph.Triples, facts.Bulletins, loadgen.BulletinTriples)
	}
	store, err := graphlog.Open(graphlog.Config{Dir: graphDir, CheckpointInterval: -1})
	if err != nil {
		return nil, err
	}
	engine := sparql.NewSnapshotEngine(store.Graph().Snapshot())
	for i, q := range mix {
		want := 0 // an ASK answers in one line
		out, err := engine.Query(q)
		if sol, ok := out.(*sparql.Solutions); ok {
			want = len(sol.Rows)
		}
		if err != nil || rows[i] != want {
			r.failf("query %d: server returned %d rows, reference evaluation %d (%v)", i, rows[i], want, err)
		}
	}
	if err := store.Close(); err != nil {
		return nil, err
	}

	selfCPU1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	replayed := float64(len(passEPS) * res.Annotated)
	r.gate("setup_s", "setup_s", genS+median(setups), "s")
	r.gate("ready_s", "restart_s", c.readyS, "s")
	r.gate("work_per_s", "replay_eps", median(passEPS), "1/s")
	r.gate("cpu_us_per_item", "server_cpu_us_per_replayed", (cpu1-cpu0)*1e6/replayed, "us")
	r.gate("write_p50_ms", "sync_ack_p50_ms", quantile(w.ackMS, 0.50), "ms")
	r.gate("read_p50_ms", "sparql_round_p50_ms", quantile(roundMS, 0.50), "ms")
	r.gate("read_tail_ms", "sparql_round_p99_ms", quantile(roundMS, 0.99), "ms")
	r.info("sparql_qps", float64(queries)/queryS, "1/s")
	r.info("durable_sim_readings_per_s", float64(res.Fetched)/median(setups), "1/s")
	r.info("log_records", float64(facts.Records), "count")
	r.info("replayed_per_pass", float64(res.Annotated), "count")
	r.info("bulletin_triples", float64(graph.Triples), "count")
	r.info("sync_ack_p99_ms", quantile(w.ackMS, 0.99), "ms")
	r.info("sync_ack_samples", float64(len(w.ackMS)), "count")
	r.info("sparql_rounds", float64(len(roundMS)), "count")
	r.info("gen_late_p99_ms", quantile(w.lateMS, 0.99), "ms")
	r.info("server_cpu_s", cpu2-cpu0, "s")
	r.info("client_cpu_s", selfCPU1-selfCPU0, "s")
	r.info("peak_rss_mb", rss, "MB")

	if o.trace {
		e2e := c.readyS + float64(res.Annotated)/median(passEPS) + ladderRounds*quantile(roundMS, 0.50)/1e3
		if err := traceRestart(o, r, logDir, graphDir, mix, bodies, rows, time.Duration(e2e*float64(time.Second))); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// traceRestart times the read side layer by layer over the same
// directories, in-process: log scan, broker recovery, replay, graph
// store recovery, snapshot, query evaluation and the semantic-web
// handler. The root is one restart + one replay pass + ladderRounds
// query rounds as the child served them. The write side beside it
// (append and fsync of the writer's batches) is timed on a fresh log
// and reported outside the root.
func traceRestart(o opts, r *result, logDir, graphDir string, mix []string, bodies [][]byte, wantRows []int, e2e time.Duration) error {
	tr := newTracer(r.Workload, o.seed, "restart.readers")
	tr.add("restart.readers", "", e2e, 1)
	ladderStart := time.Now()

	sp := tr.start("eventlog.scan", "core.broker.attach")
	log, err := eventlog.Open(eventlog.Config{Dir: logDir})
	if err != nil {
		return err
	}
	scanned := 0
	_, err = log.Scan(1, func(eventlog.Record) error { scanned++; return nil })
	sp.end(scanned, scanned, 0)
	if err = errors.Join(err, log.Close()); err != nil {
		return err
	}

	sp = tr.start("core.broker.attach", "restart.readers")
	if log, err = eventlog.Open(eventlog.Config{Dir: logDir}); err != nil {
		return err
	}
	broker := core.NewBroker()
	broker.SetRetainedLimit(8192)
	recovered, err := broker.AttachLog(log)
	sp.end(scanned, recovered, scanned-recovered)
	if err != nil {
		return errors.Join(err, log.Close())
	}

	sp = tr.start("core.broker.replay", "restart.readers")
	replayed := 0
	_, err = broker.ReplayFrom(1, "obs/#", func(core.Message) error { replayed++; return nil })
	sp.end(scanned, replayed, 0)
	if err = errors.Join(err, log.Close()); err != nil {
		return err
	}

	sp = tr.start("graphlog.open", "restart.readers")
	store, err := graphlog.Open(graphlog.Config{Dir: graphDir, CheckpointInterval: -1})
	if err != nil {
		return err
	}
	sp.end(store.Graph().Len(), store.Graph().Len(), 0)
	defer store.Close()

	sp = tr.start("rdf.snapshot", "restart.readers")
	snap := store.Graph().Snapshot()
	sp.end(snap.Len(), snap.Len(), 0)

	engine := sparql.NewSnapshotEngine(snap)
	web := dissemination.NewPersistentSemanticWeb(store.Graph(), store.AddAll)
	for round := 0; round < ladderRounds; round++ {
		for i, q := range mix {
			sp = tr.start("sparql.query", "dissemination.semweb")
			out, err := engine.Query(q)
			n := 0
			if sol, ok := out.(*sparql.Solutions); ok {
				n = len(sol.Rows)
			}
			sp.end(1, n, 0)
			if err != nil {
				return err
			}

			sp = tr.start("dissemination.semweb", "restart.readers")
			rec := httptest.NewRecorder()
			web.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil))
			got := resultRows(rec.Body.Bytes())
			sp.end(1, got, 0)
			if rec.Code != http.StatusOK || got != wantRows[i] {
				r.failf("semweb ladder query %d: status %d, %d rows, child returned %d", i, rec.Code, got, wantRows[i])
			}
		}
	}

	// The write side: the writer's batches appended, then appended and
	// fsynced, on a fresh log.
	_, recs, err := decodeBodies(bodies[:500])
	if err != nil {
		return err
	}
	for _, withSync := range []bool{false, true} {
		dir, _, cleanup, err := tempDirs(o)
		if err != nil {
			return err
		}
		defer cleanup()
		if log, err = eventlog.Open(eventlog.Config{Dir: dir}); err != nil {
			return err
		}
		for _, batch := range recs {
			if withSync {
				sp = tr.start("eventlog.sync", "")
			} else {
				sp = tr.start("eventlog.append", "eventlog.sync")
			}
			_, n, err := log.AppendBatch(batch)
			if err == nil && withSync {
				err = log.Sync()
			}
			sp.end(len(batch), n, 0)
			if err != nil {
				return errors.Join(err, log.Close())
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
	}
	return finishTrace(tr, o, r, time.Since(ladderStart))
}
