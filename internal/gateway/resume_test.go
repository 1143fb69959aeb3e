package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
)

func newSSEScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return sc
}

// durableGateway is testGateway over a broker with an event log attached
// (the durable configuration the resume path needs).
func durableGateway(t *testing.T, dir string, mut func(*Config)) (*core.Broker, *httptest.Server) {
	t.Helper()
	b, _, srv := durableGatewayG(t, dir, mut)
	return b, srv
}

// durableGatewayG is durableGateway for tests that also read the
// gateway's counters.
func durableGatewayG(t *testing.T, dir string, mut func(*Config)) (*core.Broker, *Gateway, *httptest.Server) {
	t.Helper()
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	b := core.NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Broker: b}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = g.Close() })
	return b, g, srv
}

// resumeSSE opens an SSE stream with a Last-Event-ID header and/or extra
// query params.
func resumeSSE(t *testing.T, srv *httptest.Server, pattern, lastEventID string, params map[string]string) *sseStream {
	t.Helper()
	q := url.Values{"pattern": {pattern}}
	for k, v := range params {
		q.Set(k, v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/subscribe?"+q.Encode(), nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	s := &sseStream{resp: resp, sc: newSSEScanner(resp.Body), cancel: cancel}
	t.Cleanup(s.Close)
	return s
}

func publishTicks(t *testing.T, b *core.Broker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.Publish(core.Message{
			Topic:   "evt/stream/tick",
			Time:    time.Now(),
			Payload: map[string]any{"seq": i},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// nextMessage reads events until a "message" arrives, failing on goodbye.
func nextMessage(t *testing.T, s *sseStream) (uint64, Envelope) {
	t.Helper()
	for {
		ev, err := s.Next()
		if err != nil {
			t.Fatalf("stream ended: %v", err)
		}
		if ev.Event == "goodbye" {
			t.Fatalf("unexpected goodbye: %s", ev.Data)
		}
		if ev.Event != "message" {
			continue
		}
		id, err := strconv.ParseUint(ev.ID, 10, 64)
		if err != nil {
			t.Fatalf("message without numeric id: %q", ev.ID)
		}
		var env Envelope
		if err := json.Unmarshal([]byte(ev.Data), &env); err != nil {
			t.Fatalf("bad envelope %q: %v", ev.Data, err)
		}
		if env.Offset != id {
			t.Fatalf("id %d != envelope offset %d", id, env.Offset)
		}
		return id, env
	}
}

// TestResumeExactlyOnce is the acceptance regression: a client killed
// mid-stream and reconnected with Last-Event-ID sees every missed event
// exactly once — zero missed, zero duplicated.
func TestResumeExactlyOnce(t *testing.T) {
	b, srv := durableGateway(t, t.TempDir(), nil)
	publishTicks(t, b, 10) // offsets 1..10

	// First connection: replay from the beginning, read 6 events, die.
	first := resumeSSE(t, srv, "evt/#", "", map[string]string{"from": "1"})
	var lastSeen uint64
	for i := 0; i < 6; i++ {
		id, env := nextMessage(t, first)
		if id != uint64(i+1) {
			t.Fatalf("first connection event %d: offset %d", i, id)
		}
		var p struct{ Seq int }
		if err := json.Unmarshal(env.Payload, &p); err != nil || p.Seq != i {
			t.Fatalf("first connection event %d: payload %s", i, env.Payload)
		}
		lastSeen = id
	}
	first.Close() // killed mid-stream: events 7..10 unread

	// The world moves on while the client is gone.
	publishTicks(t, b, 5) // offsets 11..15

	// Reconnect exactly as EventSource would: Last-Event-ID header.
	second := resumeSSE(t, srv, "evt/#", fmt.Sprint(lastSeen), nil)
	for want := lastSeen + 1; want <= 15; want++ {
		id, _ := nextMessage(t, second)
		if id != want {
			t.Fatalf("resumed stream delivered offset %d, want %d (missed or duplicated)", id, want)
		}
	}
	// And the stream is live again: a new publish arrives next.
	publishTicks(t, b, 1) // offset 16
	if id, _ := nextMessage(t, second); id != 16 {
		t.Fatalf("post-resume live event offset %d, want 16", id)
	}
}

// TestResumeAcrossRestart proves the cursor survives a full process
// restart: a new broker recovered from the same log directory serves the
// client the events it missed while everything was down.
func TestResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	lastSeen := uint64(0)
	{
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
		publishTicks(t, b, 4)
		s := resumeSSE(t, srv, "evt/#", "", map[string]string{"from": "1"})
		for i := 0; i < 3; i++ {
			lastSeen, _ = nextMessage(t, s)
		}
		s.Close()
		publishTicks(t, b, 2) // offsets 5, 6: published before the "crash"
		srv.Close()
		_ = g.Close()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: fresh broker + gateway over the same directory.
	b2, srv2 := durableGateway(t, dir, nil)
	if got := b2.NextOffset(); got != 7 {
		t.Fatalf("restarted broker NextOffset %d, want 7", got)
	}
	s := resumeSSE(t, srv2, "evt/#", fmt.Sprint(lastSeen), nil)
	for want := lastSeen + 1; want <= 6; want++ {
		id, _ := nextMessage(t, s)
		if id != want {
			t.Fatalf("post-restart resume delivered %d, want %d", id, want)
		}
	}
	publishTicks(t, b2, 1) // offset 7, live after restart
	if id, _ := nextMessage(t, s); id != 7 {
		t.Fatalf("post-restart live event %d, want 7", id)
	}
}

// TestResumeOutpacedClientLosesNothing floods a resumed stream far
// faster than any buffer would absorb: delivery comes straight from the
// log, so under the *default* config (no raised DropLimit) the client
// is neither evicted as a slow consumer nor missing a single event —
// each arrives exactly once, in offset order.
func TestResumeOutpacedClientLosesNothing(t *testing.T) {
	const total = 400
	b, srv := durableGateway(t, t.TempDir(), nil)
	s := resumeSSE(t, srv, "evt/#", "", map[string]string{"from": "1", "buffer": "2"})
	publishTicks(t, b, total)
	for want := uint64(1); want <= total; want++ {
		id, _ := nextMessage(t, s)
		if id != want {
			t.Fatalf("log-tailed stream delivered %d, want %d", id, want)
		}
	}
}

// TestResumeWithoutLogBestEffort: on an in-memory broker a resume
// request must not fail — the client gets the live stream, deduplicated
// against what it already saw, just no history.
func TestResumeWithoutLogBestEffort(t *testing.T) {
	b, _, srv := testGateway(t, nil)
	publishTicks(t, b, 3)
	s := resumeSSE(t, srv, "evt/#", "2", nil)
	// Retained replay holds the latest tick (offset 3, > 2): delivered.
	if id, _ := nextMessage(t, s); id != 3 {
		t.Fatalf("retained catch-up delivered %d, want 3", id)
	}
	publishTicks(t, b, 1)
	if id, _ := nextMessage(t, s); id != 4 {
		t.Fatalf("live event %d, want 4", id)
	}
}

// TestSSEIDCarriesDurableOffset: the id: field is the broker offset, not
// a per-connection counter — two clients see the same id for the same
// event, and ids keep counting across connections.
func TestSSEIDCarriesDurableOffset(t *testing.T) {
	b, srv := durableGateway(t, t.TempDir(), nil)
	a := resumeSSE(t, srv, "evt/#", "", nil)
	c := resumeSSE(t, srv, "evt/#", "", nil)
	publishTicks(t, b, 2)
	idA1, _ := nextMessage(t, a)
	idC1, _ := nextMessage(t, c)
	idA2, _ := nextMessage(t, a)
	if idA1 != idC1 {
		t.Fatalf("same event, different ids: %d vs %d", idA1, idC1)
	}
	if idA2 != idA1+1 {
		t.Fatalf("ids not the offset sequence: %d then %d", idA1, idA2)
	}
	// A later, separate connection continues the global sequence — the
	// old per-connection counter would have restarted at 1.
	d := resumeSSE(t, srv, "evt/#", "", nil)
	publishTicks(t, b, 1)
	// Skip d's retained replay (offset 2), then the live event.
	id, _ := nextMessage(t, d)
	if id == 1 {
		t.Fatal("id restarted at 1: per-connection counter is back")
	}
}

// TestReplayedFramesMatchLiveFrames: a live stream writes each message's
// shared cached frame, a stream resumed from the log renders its frames
// into the stream's own buffer; both carry the same bytes for the same
// event — the envelope as json.Marshal renders it, HTML escaping and the
// degraded envelope of an unmarshalable time included.
func TestReplayedFramesMatchLiveFrames(t *testing.T) {
	b, srv := durableGateway(t, t.TempDir(), nil)
	live := subscribeSSE(t, srv, "evt/#", nil)
	msgs := []core.Message{
		{
			Topic:   "evt/d1/alert",
			Time:    time.Date(2015, 3, 1, 6, 0, 0, 5, time.FixedZone("", 2*3600)),
			Payload: map[string]any{"note": "<rain & wind>", "mm": 12.5},
			Headers: map[string]string{"severity": "high", "rule": "a<b"},
		},
		{Topic: "evt/d2/alert", Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Payload: 1.5},
		{Topic: "evt/d3/alert", Time: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)},
	}
	for _, m := range msgs {
		if _, err := b.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	read := func(s *sseStream) []sseEvent {
		t.Helper()
		var out []sseEvent
		for len(out) < len(msgs) {
			ev, err := s.Next()
			if err != nil {
				t.Fatalf("after %d events: %v", len(out), err)
			}
			if ev.Event == "message" {
				out = append(out, ev)
			}
		}
		return out
	}
	want := read(live)
	got := read(resumeSSE(t, srv, "evt/#", "", map[string]string{"from": "1"}))
	for i, m := range msgs {
		if got[i] != want[i] {
			t.Fatalf("event %d: replayed %+v, live %+v", i, got[i], want[i])
		}
		payload, err := json.Marshal(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		env := Envelope{Offset: uint64(i + 1), Topic: m.Topic, Time: m.Time, Payload: payload, Headers: m.Headers}
		if m.Time.Year() > 9999 {
			env.Time = time.Time{}
		}
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if want[i].ID != strconv.Itoa(i+1) || want[i].Data != string(body) {
			t.Fatalf("event %d: id %q data %s, want id %d data %s", i, want[i].ID, want[i].Data, i+1, body)
		}
	}
}

// TestRemotePayloadCarriedAsSent: a payload sent to POST /publish is
// carried as sent into the log, PayloadJSON, the live SSE frame and a
// resumed frame — key order, the integer 9007199254740993 (no float64
// holds it) and the spelling 3.1000 all survive, byte for byte.
func TestRemotePayloadCarriedAsSent(t *testing.T) {
	const payload = `{"node":"n-1","id":9007199254740993,"value":3.1000}`
	l, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	b := core.NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Broker: b})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = g.Close() })
	sub, err := b.Subscribe("obs/#", 4, core.DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	live := subscribeSSE(t, srv, "obs/#", nil)

	resp, err := srv.Client().Post(srv.URL+"/publish", "application/json",
		strings.NewReader(`{"topic":"obs/mangaung/Rainfall","payload":`+payload+`}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}

	check := func(where string, got []byte) {
		t.Helper()
		if string(got) != payload {
			t.Errorf("%s: payload %s, want %s", where, got, payload)
		}
	}
	recs, _, err := l.Read(1, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("log holds %d records (%v), want 1", len(recs), err)
	}
	check("logged record", recs[0].Payload)
	msgs := sub.Poll(0)
	if len(msgs) != 1 {
		t.Fatalf("subscriber saw %d messages, want 1", len(msgs))
	}
	check("PayloadJSON", msgs[0].PayloadJSON())
	check("live frame", live.collect(t, 1)[0].Payload)
	_, resumed := nextMessage(t, resumeSSE(t, srv, "obs/#", "", map[string]string{"from": "1"}))
	check("resumed frame", resumed.Payload)
}

// TestInvalidRawPayloadLogsValidJSON: an in-process publisher can hand
// the broker a json.RawMessage that is not JSON. It is not carried as
// sent: it lands in the log as valid JSON (its string rendering), and a
// resumed stream reads it back.
func TestInvalidRawPayloadLogsValidJSON(t *testing.T) {
	b, srv := durableGateway(t, t.TempDir(), nil)
	if _, err := b.Publish(core.Message{Topic: "evt/d1/raw", Payload: json.RawMessage(`{nope`)}); err != nil {
		t.Fatal(err)
	}
	var logged []byte
	if _, err := b.ReplayFrom(1, "#", func(m core.Message) error {
		logged = m.PayloadJSON()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(logged) {
		t.Fatalf("logged payload %q is not valid JSON", logged)
	}
	_, env := nextMessage(t, resumeSSE(t, srv, "evt/#", "", map[string]string{"from": "1"}))
	if string(env.Payload) != string(logged) {
		t.Errorf("resumed payload %s, logged %s", env.Payload, logged)
	}
}

// TestResumeCursorPastTailClamps: a Last-Event-ID from a previous log
// generation (directory wiped, offsets restarted) must not suppress the
// live feed — the gateway clamps the cursor to the current tail.
func TestResumeCursorPastTailClamps(t *testing.T) {
	b, srv := durableGateway(t, t.TempDir(), nil)
	publishTicks(t, b, 2) // offsets 1, 2 — far below the stale cursor
	s := resumeSSE(t, srv, "evt/#", "29000", nil)
	publishTicks(t, b, 1) // offset 3
	if id, _ := nextMessage(t, s); id != 3 {
		t.Fatalf("clamped resume delivered %d, want live offset 3", id)
	}
}

// TestShutdownDuringCatchUp: Shutdown must not hang behind a resumed
// client that is stuck mid-catch-up over a large log (the stream checks
// the gateway context per record and write deadlines bound the rest).
func TestShutdownDuringCatchUp(t *testing.T) {
	l, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b := core.NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Broker: b, WriteTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()
	publishTicks(t, b, 60000) // ~8MB of history, larger than socket buffers

	// Open a resuming stream and never read it: the catch-up stalls on
	// TCP backpressure.
	resp, err := http.Get(srv.URL + "/subscribe?pattern=evt/%23&from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Synchronize on the stream actually registering (and starting its
	// catch-up) rather than sleeping an arbitrary calibration interval:
	// under -race on a loaded machine 50ms was not always enough, and on
	// a fast one it was 50ms wasted.
	waitFor(t, func() bool { return g.sseActive.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain the catching-up stream: %v (after %v)", err, time.Since(start))
	}
}
