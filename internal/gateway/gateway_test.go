package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// testGateway builds a broker + gateway + test server.
func testGateway(t *testing.T, mut func(*Config)) (*core.Broker, *Gateway, *httptest.Server) {
	t.Helper()
	b := core.NewBroker()
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

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// sseStream reads events from an open /subscribe response.
type sseStream struct {
	resp   *http.Response
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

// subscribeSSE opens an SSE stream; params other than pattern are
// optional ("buffer", "policy").
func subscribeSSE(t *testing.T, srv *httptest.Server, pattern string, params map[string]string) *sseStream {
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
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	s := &sseStream{resp: resp, sc: bufio.NewScanner(resp.Body), cancel: cancel}
	s.sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	t.Cleanup(s.Close)
	return s
}

func (s *sseStream) Close() {
	s.cancel()
	s.resp.Body.Close()
}

// Next blocks until one full event arrives or the stream ends.
func (s *sseStream) Next() (sseEvent, error) {
	var ev sseEvent
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if ev.Event != "" || ev.Data != "" {
				return ev, nil
			}
		case strings.HasPrefix(line, ":"):
			// keep-alive comment
		case strings.HasPrefix(line, "id: "):
			ev.ID = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.Event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.Data = line[len("data: "):]
		}
	}
	if err := s.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}

// collect reads n "message" events, failing on anything else.
func (s *sseStream) collect(t *testing.T, n int) []Envelope {
	t.Helper()
	out := make([]Envelope, 0, n)
	for len(out) < n {
		ev, err := s.Next()
		if err != nil {
			t.Fatalf("after %d events: %v", len(out), err)
		}
		if ev.Event != "message" {
			t.Fatalf("unexpected event %q (%s) after %d messages", ev.Event, ev.Data, len(out))
		}
		var env Envelope
		if err := json.Unmarshal([]byte(ev.Data), &env); err != nil {
			t.Fatalf("bad envelope %q: %v", ev.Data, err)
		}
		out = append(out, env)
	}
	return out
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, srv *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestPublishSingleAndBatch(t *testing.T) {
	b, _, srv := testGateway(t, nil)
	sub, err := b.Subscribe("obs/#", 16, core.DropOldest)
	if err != nil {
		t.Fatal(err)
	}

	code, out := postJSON(t, srv, "/publish", Envelope{
		Topic:   "obs/mangaung/Rainfall",
		Payload: json.RawMessage(`{"value": 1.5}`),
		Headers: map[string]string{"unit": "mm"},
	})
	if code != http.StatusOK {
		t.Fatalf("publish status %d: %v", code, out)
	}
	if out["published"].(float64) != 1 || out["deliveries"].(float64) != 1 {
		t.Fatalf("publish accounting: %v", out)
	}

	code, out = postJSON(t, srv, "/publish", []Envelope{
		{Topic: "obs/a/Rainfall"},
		{Topic: "obs/b/Rainfall"},
	})
	if code != http.StatusOK || out["published"].(float64) != 2 {
		t.Fatalf("batch publish: %d %v", code, out)
	}

	msgs := sub.Poll(0)
	if len(msgs) != 3 {
		t.Fatalf("subscriber saw %d messages", len(msgs))
	}
	// The payload is carried as sent (the request encoder compacted it),
	// and PayloadAs reads it back.
	raw, ok := msgs[0].Payload.(json.RawMessage)
	if !ok || string(raw) != `{"value":1.5}` {
		t.Errorf("payload carried as %#v, want json.RawMessage {\"value\":1.5}", msgs[0].Payload)
	}
	if v, err := core.PayloadAs[struct{ Value float64 }](msgs[0]); err != nil || v.Value != 1.5 {
		t.Errorf("PayloadAs read %+v, %v; want value 1.5", v, err)
	}
	if msgs[0].Headers["unit"] != "mm" {
		t.Errorf("headers lost: %v", msgs[0].Headers)
	}
	if msgs[0].Time.IsZero() {
		t.Error("zero publish time should default to now")
	}

	// Oversize payloads are rejected before anything is published: the
	// broker retains every topic, so payload size is retained memory.
	code, out = postJSON(t, srv, "/publish", Envelope{
		Topic:   "obs/huge/x",
		Payload: json.RawMessage(`"` + strings.Repeat("x", maxPayloadBytes) + `"`),
	})
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize payload: %d %v", code, out["error"])
	}

	// Wildcard topics are a publish-side error.
	code, out = postJSON(t, srv, "/publish", Envelope{Topic: "obs/+/x"})
	if code != http.StatusBadRequest {
		t.Errorf("wildcard publish: %d %v", code, out)
	}
	// Malformed JSON.
	resp, err := srv.Client().Post(srv.URL+"/publish", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed publish: %d", resp.StatusCode)
	}
}

func TestSSESubscribeWildcardAndRetainedReplay(t *testing.T) {
	b, _, srv := testGateway(t, nil)
	// Retained messages published before the client connects...
	for _, topic := range []string{"obs/b/Rainfall", "obs/a/Rainfall", "obs/a/NDVI"} {
		if _, err := b.Publish(core.Message{Topic: topic, Payload: topic}); err != nil {
			t.Fatal(err)
		}
	}
	s := subscribeSSE(t, srv, "obs/+/Rainfall", nil)
	// ...replay in sorted topic order.
	replay := s.collect(t, 2)
	if replay[0].Topic != "obs/a/Rainfall" || replay[1].Topic != "obs/b/Rainfall" {
		t.Fatalf("replay order: %v %v", replay[0].Topic, replay[1].Topic)
	}
	// Live messages follow.
	if _, err := b.Publish(core.Message{Topic: "obs/c/Rainfall", Payload: 7}); err != nil {
		t.Fatal(err)
	}
	live := s.collect(t, 1)
	if live[0].Topic != "obs/c/Rainfall" || string(live[0].Payload) != "7" {
		t.Fatalf("live event: %+v", live[0])
	}
	// Non-matching topics stay invisible (nothing further arrives for the
	// NDVI topic; the stream just keeps quiet — verified implicitly by
	// the exact counts above).

	// Bad patterns are rejected up front.
	resp, err := srv.Client().Get(srv.URL + "/subscribe?pattern=" + url.QueryEscape("a/#/b"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad pattern status %d", resp.StatusCode)
	}
	// Missing pattern.
	resp, err = srv.Client().Get(srv.URL + "/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing pattern status %d", resp.StatusCode)
	}
}

func TestSSESlowConsumerDisconnect(t *testing.T) {
	b, g, srv := testGateway(t, nil)
	s := subscribeSSE(t, srv, "burst/#", map[string]string{"buffer": "2"})

	// Wait until the subscription is registered, then overwhelm it: the
	// pump is woken after the whole batch has fanned out, so its first
	// look at the mailbox already sees 98 drops.
	waitFor(t, func() bool { return b.Stats().Subscriptions == 1 })
	msgs := make([]core.Message, 100)
	for i := range msgs {
		msgs[i] = core.Message{Topic: fmt.Sprintf("burst/%d", i), Payload: i}
	}
	if _, err := b.PublishBatch(msgs); err != nil {
		t.Fatal(err)
	}

	// The client must be evicted with a terminal goodbye event.
	var goodbye sseEvent
	for {
		ev, err := s.Next()
		if err != nil {
			t.Fatalf("stream ended without goodbye: %v", err)
		}
		if ev.Event == "goodbye" {
			goodbye = ev
			break
		}
	}
	var detail struct {
		Reason  string `json:"reason"`
		Dropped int    `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(goodbye.Data), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Reason != "slow-consumer" || detail.Dropped == 0 {
		t.Fatalf("goodbye detail: %+v", detail)
	}
	if g.slowDisconnects.Load() != 1 {
		t.Errorf("slow disconnects = %d", g.slowDisconnects.Load())
	}
	// The evicted client's drops stay accounted at the broker.
	waitFor(t, func() bool { return b.Stats().Subscriptions == 0 })
	if drops := b.Stats().Drops; drops != detail.Dropped {
		t.Errorf("broker drops = %d, goodbye said %d", drops, detail.Dropped)
	}
}

func TestSSERetainedReplayDoesNotEvict(t *testing.T) {
	// A retained catalogue larger than the client's buffer overflows it
	// during Subscribe, before the client could possibly have read
	// anything. That must not count as consumer slowness: the client
	// keeps the stream, receives what its buffer held, and then streams
	// live messages.
	b, g, srv := testGateway(t, nil)
	for i := 0; i < 30; i++ {
		if _, err := b.Publish(core.Message{Topic: fmt.Sprintf("replay/%02d", i), Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	s := subscribeSSE(t, srv, "replay/#", map[string]string{"buffer": "4"})
	// DropOldest keeps the newest 4 of the sorted replay.
	replay := s.collect(t, 4)
	if replay[0].Topic != "replay/26" || replay[3].Topic != "replay/29" {
		t.Fatalf("replayed window: %v ... %v", replay[0].Topic, replay[3].Topic)
	}
	if _, err := b.Publish(core.Message{Topic: "replay/live", Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	live := s.collect(t, 1)
	if live[0].Topic != "replay/live" {
		t.Fatalf("live topic %q", live[0].Topic)
	}
	if g.slowDisconnects.Load() != 0 {
		t.Errorf("replay overflow counted as slow disconnect")
	}
}

func TestQueueDefaultCapacityClamped(t *testing.T) {
	// A defaulted capacity must respect a small operator MaxBuffer too
	// (SubscribeAck's own default of 1024 would exceed it).
	_, _, srv := testGateway(t, func(c *Config) {
		c.DefaultBuffer = 64
		c.MaxBuffer = 128
	})
	code, out := postJSON(t, srv, "/v1/queue?pattern="+url.QueryEscape("x/#"), nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, out)
	}
	if got := out["capacity"].(float64); got != 128 {
		t.Errorf("defaulted capacity = %v, want clamped to 128", got)
	}
}

func TestMaxBufferNotBelowDefault(t *testing.T) {
	// An operator raising the default buffer above the stock MaxBuffer
	// must get what they configured, not a silent clamp.
	g, err := New(Config{Broker: core.NewBroker(), DefaultBuffer: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.MaxBuffer != 8192 {
		t.Errorf("MaxBuffer = %d, want raised to 8192", g.cfg.MaxBuffer)
	}
}

func TestQueueLifecycle(t *testing.T) {
	b, _, srv := testGateway(t, nil)

	code, out := postJSON(t, srv, "/v1/queue?pattern="+url.QueryEscape("bulletin/#"), nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, out)
	}
	qid := out["queue"].(string)

	// Client-supplied capacity is clamped: queue memory is server
	// memory.
	code, out2 := postJSON(t, srv, "/v1/queue?pattern="+url.QueryEscape("big/#")+"&capacity=2000000000", nil)
	if code != http.StatusCreated {
		t.Fatalf("create big: %d %v", code, out2)
	}
	if got := out2["capacity"].(float64); got != defaultMaxBuffer {
		t.Errorf("capacity = %v, want clamped to %d", got, defaultMaxBuffer)
	}

	for i := 0; i < 3; i++ {
		if _, err := b.Publish(core.Message{Topic: "bulletin/mangaung", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}

	// Fetch two, leaving one queued.
	code, out = getJSON(t, srv, "/v1/queue/"+qid+"/fetch?max=2")
	if code != http.StatusOK {
		t.Fatalf("fetch: %d %v", code, out)
	}
	ds := out["deliveries"].([]any)
	if len(ds) != 2 {
		t.Fatalf("fetched %d", len(ds))
	}
	seq0 := uint64(ds[0].(map[string]any)["seq"].(float64))

	code, out = getJSON(t, srv, "/v1/queue/"+qid)
	if code != http.StatusOK || out["queued"].(float64) != 1 || out["inflight"].(float64) != 2 {
		t.Fatalf("queue stats: %v", out)
	}

	// Ack one; double-ack conflicts.
	code, out = postJSON(t, srv, fmt.Sprintf("/v1/queue/%s/ack?seq=%d", qid, seq0), nil)
	if code != http.StatusOK || out["acked"].(float64) != 1 {
		t.Fatalf("ack: %d %v", code, out)
	}
	code, _ = postJSON(t, srv, fmt.Sprintf("/v1/queue/%s/ack?seq=%d", qid, seq0), nil)
	if code != http.StatusConflict {
		t.Fatalf("double ack status %d", code)
	}

	// Redeliver the remaining in-flight delivery, then drain and
	// batch-ack everything.
	code, out = postJSON(t, srv, "/v1/queue/"+qid+"/redeliver", nil)
	if code != http.StatusOK || out["redelivered"].(float64) != 1 {
		t.Fatalf("redeliver: %d %v", code, out)
	}
	code, out = getJSON(t, srv, "/v1/queue/"+qid+"/fetch")
	if code != http.StatusOK {
		t.Fatalf("refetch: %d %v", code, out)
	}
	ds = out["deliveries"].([]any)
	if len(ds) != 2 {
		t.Fatalf("refetched %d", len(ds))
	}
	seqs := make([]uint64, len(ds))
	for i, d := range ds {
		seqs[i] = uint64(d.(map[string]any)["seq"].(float64))
	}
	code, out = postJSON(t, srv, "/v1/queue/"+qid+"/ack", map[string]any{"seqs": seqs})
	if code != http.StatusOK || out["acked"].(float64) != 2 {
		t.Fatalf("batch ack: %d %v", code, out)
	}

	// List (the bulletin queue plus the clamped one), then delete.
	code, out = getJSON(t, srv, "/v1/queue")
	if code != http.StatusOK || len(out["queues"].([]any)) != 2 {
		t.Fatalf("list: %v", out)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/queue/"+qid, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	code, _ = getJSON(t, srv, "/v1/queue/"+qid)
	if code != http.StatusNotFound {
		t.Errorf("deleted queue still resolves: %d", code)
	}
	if b.Stats().Subscriptions != 1 { // only the clamped big/# queue remains
		t.Errorf("broker holds %d subscriptions, want 1", b.Stats().Subscriptions)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	b, _, srv := testGateway(t, func(c *Config) {
		c.Extra = func() map[string]any { return map[string]any{"fetched": 42} }
	})
	if _, err := b.Publish(core.Message{Topic: "x/y", Payload: 1}); err != nil {
		t.Fatal(err)
	}
	code, out := getJSON(t, srv, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	broker := out["broker"].(map[string]any)
	if broker["published"].(float64) != 1 {
		t.Errorf("broker stats: %v", broker)
	}
	if out["extra"].(map[string]any)["fetched"].(float64) != 42 {
		t.Errorf("extra stats: %v", out["extra"])
	}
	if _, ok := out["gateway"].(map[string]any)["sse_clients"]; !ok {
		t.Errorf("gateway stats missing: %v", out["gateway"])
	}

	code, out = getJSON(t, srv, "/healthz")
	if code != http.StatusOK || out["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, out)
	}
}

func TestShutdownDisconnectsSSE(t *testing.T) {
	_, g, srv := testGateway(t, nil)
	s := subscribeSSE(t, srv, "x/#", nil)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- g.Shutdown(ctx)
	}()

	ev, err := s.Next()
	if err != nil {
		t.Fatalf("expected goodbye, got %v", err)
	}
	if ev.Event != "goodbye" || !strings.Contains(ev.Data, "shutdown") {
		t.Fatalf("terminal event: %+v", ev)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("stream should end after goodbye, got %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	// Health reflects the drain, and new streams are rejected.
	code, out := getJSON(t, srv, "/healthz")
	if code != http.StatusOK || out["status"] != "shutting-down" {
		t.Errorf("healthz after shutdown: %d %v", code, out)
	}
	resp, err := srv.Client().Get(srv.URL + "/subscribe?pattern=" + url.QueryEscape("x/#"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("subscribe during drain: %d, want 503", resp.StatusCode)
	}
}

// waitFor polls a condition with a deadline; the gateway's pumps run on
// their own goroutines, so tests synchronize on observable state.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
