package gateway

// Graceful shutdown under load: the drain contract must hold not just
// for one idle stream but while catch-up replays and publish batches
// are actually in flight — the state a real deploy restarts from.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
)

// subOutcome is what one watched stream observed until it ended,
// reduced to the delivery contract's terms (API.md, "Delivery
// contract"): monotonic is the log-backed guarantee (strict offset
// order, hence exactly once); unique and seqOrdered are the
// queue-backed one (each message at most once, each publisher's
// messages in its publish order, no order across publishers).
type subOutcome struct {
	received   int
	goodbye    bool
	reason     string
	monotonic  bool
	unique     bool
	seqOrdered bool
	err        error
}

// drainStream consumes one SSE stream to its end, recording ordering
// and the terminal event. Every test publisher owns one topic and
// numbers its payloads, so per-topic seq order is per-publisher order.
func drainStream(resp *http.Response) subOutcome {
	out := subOutcome{monotonic: true, unique: true, seqOrdered: true}
	sc := newSSEScanner(resp.Body)
	var event string
	var data []byte
	var lastOffset uint64
	seen := map[uint64]bool{}
	lastSeq := map[string]int{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch event {
			case "message":
				var env Envelope
				var p struct{ Seq int }
				if json.Unmarshal(data, &env) == nil && json.Unmarshal(env.Payload, &p) == nil {
					if env.Offset <= lastOffset {
						out.monotonic = false
					}
					lastOffset = env.Offset
					if seen[env.Offset] {
						out.unique = false
					}
					seen[env.Offset] = true
					if last, ok := lastSeq[env.Topic]; ok && p.Seq <= last {
						out.seqOrdered = false
					}
					lastSeq[env.Topic] = p.Seq
				}
				out.received++
			case "goodbye":
				out.goodbye = true
				var g struct {
					Reason string `json:"reason"`
				}
				_ = json.Unmarshal(data, &g)
				out.reason = g.Reason
				return out
			}
			event, data = "", nil
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = []byte(line[6:])
		}
	}
	out.err = sc.Err()
	return out
}

// TestGracefulShutdownUnderLoad drives the full drain scenario:
// subscribers mid-catch-up over real history, live-queue subscribers,
// and concurrent publishers — then Shutdown fires. Every stream must
// end with a shutdown goodbye having kept its kind's delivery contract,
// Shutdown must return inside its deadline, and after closing and
// reopening the log every acked publish must be there exactly once,
// contiguously (no half-logged batch).
func TestGracefulShutdownUnderLoad(t *testing.T) {
	dir := t.TempDir()
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Broker: b})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	const history = 5000
	publishTicks(t, b, history) // catch-up material

	// N resuming subscribers (log-backed catch-up from offset 1) plus a
	// few live-queue ones. The live queues get the largest buffer the
	// gateway grants: the catch-ups compete for the CPU, and a live pump
	// that is scheduled late must find a backlog, not an eviction.
	const nResume, nLive = 6, 3
	outcomes := make([]subOutcome, nResume+nLive)
	var subWG sync.WaitGroup
	openStream := func(i int, path string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("subscribe %s: %d", path, resp.StatusCode)
		}
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			defer resp.Body.Close()
			outcomes[i] = drainStream(resp)
		}()
	}
	for i := 0; i < nResume; i++ {
		openStream(i, "/subscribe?pattern=evt/%23&from=1")
	}
	for i := 0; i < nLive; i++ {
		openStream(nResume+i, "/subscribe?pattern=evt/%23&buffer=4096")
	}
	waitFor(t, func() bool { return g.sseActive.Load() == nResume+nLive })

	// M publishers batching over HTTP until told to stop. Acked events
	// are the durability obligation the reopened log must honor.
	const nPub, batch = 4, 25
	pubCtx, stopPubs := context.WithCancel(context.Background())
	var acked atomic.Int64
	var pubWG sync.WaitGroup
	for p := 0; p < nPub; p++ {
		p := p
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			seq := 0
			for pubCtx.Err() == nil {
				envs := make([]Envelope, batch)
				for i := range envs {
					envs[i] = Envelope{
						Topic:   fmt.Sprintf("evt/load/p%d", p),
						Payload: json.RawMessage(fmt.Sprintf(`{"seq":%d}`, seq)),
					}
					seq++
				}
				body, _ := json.Marshal(envs)
				resp, err := srv.Client().Post(srv.URL+"/publish", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					acked.Add(batch)
				}
			}
		}()
	}

	// Let load establish, then fire the drain while everything is in
	// flight.
	waitFor(t, func() bool { return acked.Load() > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	stopPubs()
	pubWG.Wait()
	subWG.Wait()

	for i, out := range outcomes {
		kind := "resume"
		if i >= nResume {
			kind = "live"
		}
		if out.err != nil {
			t.Errorf("%s stream %d: read error %v", kind, i, out.err)
		}
		if !out.goodbye || out.reason != "shutdown" {
			t.Errorf("%s stream %d: want shutdown goodbye, got goodbye=%v reason=%q after %d events",
				kind, i, out.goodbye, out.reason, out.received)
		}
		// Log-backed streams promise strict offset order. Queue-backed
		// ones are fanned out after the offset is assigned and outside
		// the sequencer lock, so concurrent publishers interleave: no
		// global order, but never a duplicate, and never one publisher's
		// messages out of order.
		if kind == "resume" && !out.monotonic {
			t.Errorf("resume stream %d: offsets not strictly increasing", i)
		}
		if !out.unique {
			t.Errorf("%s stream %d: an offset was delivered twice", kind, i)
		}
		if !out.seqOrdered {
			t.Errorf("%s stream %d: a publisher's messages arrived out of order", kind, i)
		}
	}

	// Publishes raced the drain; whatever was acked must be fully
	// logged. Close everything and reopen the directory cold.
	ackedEvents := acked.Load()
	srv.Close()
	b.DrainDispatch()
	b.StopDispatch()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer l2.Close()

	var total, loadEvents int64
	wantNext := l2.OldestOffset()
	if _, err := l2.Scan(1, func(rec eventlog.Record) error {
		if rec.Offset != wantNext {
			return fmt.Errorf("offset gap: got %d want %d", rec.Offset, wantNext)
		}
		wantNext++
		total++
		if len(rec.Topic) >= 8 && rec.Topic[:8] == "evt/load" {
			loadEvents++
		}
		return nil
	}); err != nil {
		t.Fatalf("recovered log scan: %v", err)
	}
	if loadEvents < ackedEvents {
		t.Errorf("recovered log holds %d load events, but %d were acked", loadEvents, ackedEvents)
	}
	if loadEvents%batch != 0 {
		t.Errorf("half-logged batch: %d load events is not a multiple of batch size %d", loadEvents, batch)
	}
	if total < history+ackedEvents {
		t.Errorf("recovered %d records, want at least %d", total, history+int64(ackedEvents))
	}
}

// TestPublishSyncFlag: ?sync=1 withholds the ack until the event log
// has fsynced, and says so in the response — the durability handshake
// the chaos harness's "no lost acked publish" oracle stands on.
func TestPublishSyncFlag(t *testing.T) {
	_, srv := durableGateway(t, t.TempDir(), nil)
	code, out := postJSON(t, srv, "/publish?sync=1", Envelope{Topic: "evt/a", Payload: json.RawMessage(`1`)})
	if code != http.StatusOK {
		t.Fatalf("sync publish: %d %v", code, out)
	}
	if out["synced"] != true {
		t.Errorf("sync publish response: synced=%v, want true", out["synced"])
	}
	_, stats := getJSON(t, srv, "/stats")
	gw, _ := stats["gateway"].(map[string]any)
	if n, _ := gw["publish_synced"].(float64); n != 1 {
		t.Errorf("publish_synced = %v, want 1", gw["publish_synced"])
	}
	elog, _ := stats["eventlog"].(map[string]any)
	if n, _ := elog["fsyncs"].(float64); n < 1 {
		t.Errorf("fsyncs = %v, want >= 1 after sync publish", elog["fsyncs"])
	}
	// Without the flag the ack does not claim durability.
	code, out = postJSON(t, srv, "/publish", Envelope{Topic: "evt/b", Payload: json.RawMessage(`2`)})
	if code != http.StatusOK || out["synced"] != false {
		t.Errorf("plain publish: %d synced=%v, want 200 synced=false", code, out["synced"])
	}
}

// TestShutdownUnderLoadRejectsNewStreams: during and after the drain
// the gateway must refuse new subscriptions with 503 (load balancers
// key on it) while /publish keeps working — the broker outlives the
// SSE plane.
func TestShutdownUnderLoadRejectsNewStreams(t *testing.T) {
	b, g, srv := testGateway(t, nil)
	s := subscribeSSE(t, srv, "x/#", nil)
	defer s.Close()
	waitFor(t, func() bool { return g.sseActive.Load() == 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- g.Shutdown(ctx)
	}()
	// The draining flag flips before streams unwind; once Shutdown
	// completes it is definitely set.
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, err := srv.Client().Get(srv.URL + "/subscribe?pattern=x/%23")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("subscribe after drain: %d, want 503", resp.StatusCode)
	}
	code, _ := postJSON(t, srv, "/publish", Envelope{Topic: "x/a", Payload: json.RawMessage(`1`)})
	if code != http.StatusOK {
		t.Errorf("publish after drain: %d, want 200 (broker outlives SSE plane)", code)
	}
	_ = b
}
