package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Defaults for Config zero values.
const (
	defaultBuffer       = 256
	defaultMaxBuffer    = 4096
	defaultKeepAlive    = 15 * time.Second
	defaultWriteTimeout = 30 * time.Second
	// maxQueues bounds concurrently registered ack queues.
	maxQueues = 1024
	// maxPublishBytes bounds a /publish request body.
	maxPublishBytes = 4 << 20
	// maxPayloadBytes bounds one envelope's payload. Every published
	// topic is retained, so per-message payload size × retained-topic
	// cap is the broker's worst-case retained memory; without this a
	// remote publisher could park multi-megabyte payloads per topic.
	maxPayloadBytes = 64 << 10
)

// Config configures a Gateway.
type Config struct {
	// Broker is the pub/sub fabric the gateway fronts (required).
	Broker *core.Broker
	// DefaultBuffer is the per-client SSE queue capacity when the client
	// does not pass ?buffer= (default 256).
	DefaultBuffer int
	// MaxBuffer caps client-requested buffer sizes (default 4096).
	MaxBuffer int
	// KeepAlive is how long an SSE stream stays silent before a comment
	// heartbeat goes out (default 15s); data writes push it back.
	KeepAlive time.Duration
	// WriteTimeout bounds each SSE write (default 30s). A client whose
	// transport has stalled — not just one reading slowly — fails the
	// write and is disconnected, so a dead connection cannot pin its
	// pump goroutine or wedge Shutdown.
	WriteTimeout time.Duration
	// Extra, when set, contributes an application-defined section to
	// /stats (the DEWS wires its ingest and dissemination totals here).
	Extra func() map[string]any
}

func (c *Config) applyDefaults() {
	if c.DefaultBuffer <= 0 {
		c.DefaultBuffer = defaultBuffer
	}
	if c.MaxBuffer <= 0 {
		c.MaxBuffer = defaultMaxBuffer
	}
	// An operator-raised default must not be clamped back down by the
	// client-request cap.
	if c.MaxBuffer < c.DefaultBuffer {
		c.MaxBuffer = c.DefaultBuffer
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = defaultKeepAlive
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = defaultWriteTimeout
	}
}

// Gateway exposes a core.Broker over HTTP: SSE streaming subscriptions,
// single/batch publishing, at-least-once ack queues, and stats. It
// implements http.Handler; mount it on a mux or serve it directly.
type Gateway struct {
	cfg Config
	mux *http.ServeMux

	// ctx is cancelled by Shutdown; every SSE pump watches it.
	ctx    context.Context
	cancel context.CancelFunc
	// streamMu orders stream registration against Shutdown: once
	// draining is set no new stream may wg.Add, so wg.Wait covers every
	// accepted stream.
	streamMu sync.Mutex
	draining bool
	// wg tracks active SSE streams so Shutdown can wait for them.
	wg sync.WaitGroup

	// counters surfaced by /stats.
	sseActive  atomic.Int64
	sseStreams atomic.Int64
	sseResumed atomic.Int64
	sseEvents  atomic.Int64
	// sseWrites counts coalesced data writes and sseWakeups the pump
	// wakes that led to them: events/writes is the coalescing ratio, and
	// an idle stream adds to neither.
	sseWrites       atomic.Int64
	sseWakeups      atomic.Int64
	slowDisconnects atomic.Int64
	published       atomic.Int64
	publishBatches  atomic.Int64
	publishSynced   atomic.Int64
	// goodbye terminations by reason.
	goodbyeShutdown     atomic.Int64
	goodbyeSlow         atomic.Int64
	goodbyeReplayFailed atomic.Int64

	qmu    sync.Mutex
	queues map[string]*core.AckSubscription
	nextQ  int
}

// New builds a gateway over the configured broker.
func New(cfg Config) (*Gateway, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("gateway: config needs a broker")
	}
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		queues: make(map[string]*core.AckSubscription),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /subscribe", g.handleSubscribe)
	mux.HandleFunc("POST /publish", g.handlePublish)
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("POST /v1/queue", g.handleQueueCreate)
	mux.HandleFunc("GET /v1/queue", g.handleQueueList)
	mux.HandleFunc("GET /v1/queue/{id}", g.handleQueueStats)
	mux.HandleFunc("DELETE /v1/queue/{id}", g.handleQueueDelete)
	mux.HandleFunc("GET /v1/queue/{id}/fetch", g.handleQueueFetch)
	mux.HandleFunc("POST /v1/queue/{id}/ack", g.handleQueueAck)
	mux.HandleFunc("POST /v1/queue/{id}/redeliver", g.handleQueueRedeliver)
	g.mux = mux
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// addStream registers an SSE stream with the shutdown tracker; it
// reports false once draining has begun (new streams are rejected).
func (g *Gateway) addStream() bool {
	g.streamMu.Lock()
	defer g.streamMu.Unlock()
	if g.draining {
		return false
	}
	g.wg.Add(1)
	return true
}

// Shutdown disconnects every SSE stream (each receives a final goodbye
// event), rejects new ones, and waits for the active ones to unwind, or
// until ctx expires. Queues stay registered: an http.Server shutdown
// severs the clients anyway, and a consumer reconnecting before process
// exit can still drain them.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.streamMu.Lock()
	g.draining = true
	g.streamMu.Unlock()
	g.cancel()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Shutdown without a deadline.
func (g *Gateway) Close() error { return g.Shutdown(context.Background()) }

// Envelope is the JSON wire form of a core.Message.
type Envelope struct {
	// Offset is the broker-assigned sequence number (durable when an
	// event log is attached); 0 on publish — the broker assigns it.
	Offset uint64 `json:"offset,omitempty"`
	// Topic is the '/'-separated subject (wildcards are for
	// subscriptions only).
	Topic string `json:"topic"`
	// Time is the event time; zero means "now" on publish.
	Time time.Time `json:"time"`
	// Payload is the message body as raw JSON.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Headers carries string metadata.
	Headers map[string]string `json:"headers,omitempty"`
}

// envelopeOf converts an in-process message to its wire form, reusing
// the payload JSON already marshaled for the event log when the message
// carries one. Payloads that do not marshal (channels, funcs — nothing
// the system publishes) degrade to their string rendering rather than
// failing the stream.
func envelopeOf(m core.Message) Envelope {
	return Envelope{Offset: m.Offset, Topic: m.Topic, Time: m.Time, Payload: m.PayloadJSON(), Headers: m.Headers}
}

// message converts a wire envelope to a core.Message. The payload is
// carried as sent: the json.RawMessage the request body decoded into,
// which that decode has already validated and copied out of the body.
// The broker logs those bytes and every SSE frame carries them, so key
// order and number spelling survive; consumers read the payload with
// core.PayloadAs.
func (e Envelope) message(now time.Time) core.Message {
	m := core.Message{Topic: e.Topic, Time: e.Time, Headers: e.Headers}
	if m.Time.IsZero() {
		m.Time = now
	}
	if len(e.Payload) > 0 {
		m.Payload = e.Payload
	}
	return m
}

// handlePublish accepts one envelope or an array of envelopes and
// publishes them as a single broker batch.
func (g *Gateway) handlePublish(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPublishBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "reading body: %v", err)
		return
	}
	var envs []Envelope
	if isJSONArray(body) {
		if err := json.Unmarshal(body, &envs); err != nil {
			httpError(w, http.StatusBadRequest, "bad batch: %v", err)
			return
		}
	} else {
		var e Envelope
		if err := json.Unmarshal(body, &e); err != nil {
			httpError(w, http.StatusBadRequest, "bad envelope: %v", err)
			return
		}
		envs = []Envelope{e}
	}
	now := time.Now()
	msgs := make([]core.Message, len(envs))
	for i, e := range envs {
		if len(e.Payload) > maxPayloadBytes {
			httpError(w, http.StatusRequestEntityTooLarge,
				"payload of %q is %d bytes (limit %d)", e.Topic, len(e.Payload), maxPayloadBytes)
			return
		}
		msgs[i] = e.message(now)
	}
	deliveries, err := g.cfg.Broker.PublishBatch(msgs)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// ?sync=1 upgrades the ack to a durability guarantee: the response
	// is withheld until the attached event log has fsynced the batch, so
	// a 200 means the records survive a crash. Without it an ack means
	// "logged" — durable only up to the log's batched-fsync window.
	synced := false
	if s := r.URL.Query().Get("sync"); s == "1" || s == "true" {
		if l := g.cfg.Broker.Log(); l != nil {
			if err := l.Sync(); err != nil {
				httpError(w, http.StatusInternalServerError, "sync: %v", err)
				return
			}
			synced = true
			g.publishSynced.Add(1)
		}
	}
	g.published.Add(int64(len(msgs)))
	g.publishBatches.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"published":  len(msgs),
		"deliveries": deliveries,
		"synced":     synced,
	})
}

// handleStats reports broker, gateway and application counters.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	g.qmu.Lock()
	queues := len(g.queues)
	g.qmu.Unlock()
	out := map[string]any{
		"broker": g.cfg.Broker.Stats(),
		"gateway": map[string]any{
			"sse_clients":       g.sseActive.Load(),
			"sse_streams_total": g.sseStreams.Load(),
			"sse_resumed_total": g.sseResumed.Load(),
			"sse_events_sent":   g.sseEvents.Load(),
			"sse_writes":        g.sseWrites.Load(),
			"sse_wakeups":       g.sseWakeups.Load(),
			"slow_disconnects":  g.slowDisconnects.Load(),
			"published":         g.published.Load(),
			"publish_batches":   g.publishBatches.Load(),
			"publish_synced":    g.publishSynced.Load(),
			"queues":            queues,
			"goodbyes": map[string]any{
				"shutdown":      g.goodbyeShutdown.Load(),
				"slow_consumer": g.goodbyeSlow.Load(),
				"replay_failed": g.goodbyeReplayFailed.Load(),
			},
		},
	}
	if l := g.cfg.Broker.Log(); l != nil {
		out["eventlog"] = l.Stats()
	}
	if g.cfg.Extra != nil {
		out["extra"] = g.cfg.Extra()
	}
	writeJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if g.ctx.Err() != nil {
		status = "shutting-down"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status})
}

// --- small helpers ---

func isJSONArray(body []byte) bool {
	for _, c := range body {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		}
		return c == '['
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// queryInt parses an integer query parameter, returning def when absent
// and an error only on malformed input.
func queryInt(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, s)
	}
	return n, nil
}
