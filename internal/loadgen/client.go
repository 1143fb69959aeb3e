package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// wireEnvelope is the publish-side wire shape (gateway.Envelope).
type wireEnvelope struct {
	Topic   string            `json:"topic"`
	Payload json.RawMessage   `json:"payload,omitempty"`
	Headers map[string]string `json:"headers,omitempty"`
}

// obsPayload is the observation event body.
type obsPayload struct {
	Node  string  `json:"node"`
	Seq   uint64  `json:"seq"`
	Value float64 `json:"value"`
	ID    string  `json:"id"`
}

// HeaderID and HeaderSent are the envelope headers the harness rides
// on: HeaderID carries the globally unique event identity (chaos
// oracles key on it), HeaderSent the publisher's send time in unix
// nanoseconds (the subscriber side turns it into publish→delivery
// latency). Exported so the offline oracles can key on the same names.
const (
	HeaderID   = "lg-id"
	HeaderSent = "lg-sent"
)

const (
	hdrID   = HeaderID
	hdrSent = HeaderSent
)

// AckedSet records which event IDs were positively acknowledged (HTTP
// 200) and which were sent but ended in an ambiguous transport error —
// the server may or may not have logged those. Each ID is sent at most
// once (failed batches are never retried), so "exactly once" stays
// checkable at the stream level.
type AckedSet struct {
	mu        sync.Mutex
	acked     map[string]struct{}
	uncertain map[string]struct{}
}

// NewAckedSet returns an empty set.
func NewAckedSet() *AckedSet {
	return &AckedSet{acked: make(map[string]struct{}), uncertain: make(map[string]struct{})}
}

func (a *AckedSet) ack(evs []Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ev := range evs {
		a.acked[ev.ID] = struct{}{}
	}
}

func (a *AckedSet) unsure(evs []Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ev := range evs {
		a.uncertain[ev.ID] = struct{}{}
	}
}

// Acked returns a copy of the acked ID set.
func (a *AckedSet) Acked() map[string]struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]struct{}, len(a.acked))
	for id := range a.acked {
		out[id] = struct{}{}
	}
	return out
}

// Uncertain returns a copy of the ambiguous ID set.
func (a *AckedSet) Uncertain() map[string]struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]struct{}, len(a.uncertain))
	for id := range a.uncertain {
		out[id] = struct{}{}
	}
	return out
}

// publisherResult is one publisher worker's accounting.
type publisherResult struct {
	hist      Histogram // publish→ack round trip
	published uint64    // events acked
	batches   uint64
	errors    uint64 // failed batches (connection refused, non-200, ...)
}

// publisher drives one closed-loop sensor: generate a batch, POST it,
// wait for the ack, pace to the target rate, repeat. Failed batches are
// dropped, never retried (see AckedSet). It returns when ctx ends.
func publisher(ctx context.Context, client *http.Client, base string, stream *Stream, batch int, interval time.Duration, sync bool, acked *AckedSet, res *publisherResult) {
	u := base + "/publish"
	if sync {
		u += "?sync=1"
	}
	evs := make([]Event, batch)
	envs := make([]wireEnvelope, batch)
	next := time.Now()
	for ctx.Err() == nil {
		for i := range evs {
			evs[i] = stream.Next()
		}
		sent := time.Now()
		sentNanos := strconv.FormatInt(sent.UnixNano(), 10)
		for i, ev := range evs {
			var body []byte
			if ev.Bulletin != nil {
				body, _ = json.Marshal(ev.Bulletin)
			} else {
				body, _ = json.Marshal(obsPayload{Node: ev.Node, Seq: ev.Seq, Value: ev.Value, ID: ev.ID})
			}
			envs[i] = wireEnvelope{
				Topic:   ev.Topic,
				Payload: body,
				Headers: map[string]string{hdrID: ev.ID, hdrSent: sentNanos},
			}
		}
		reqBody, _ := json.Marshal(envs)
		ok, ambiguous := postPublish(ctx, client, u, reqBody)
		res.batches++
		switch {
		case ok:
			res.hist.Observe(time.Since(sent))
			res.published += uint64(len(evs))
			acked.ack(evs)
		case ctx.Err() != nil:
			// The phase deadline cancelled the request in flight: not a
			// server failure, but the batch may have landed — ambiguous.
			acked.unsure(evs)
			return
		case ambiguous:
			res.errors++
			acked.unsure(evs)
		default:
			res.errors++
		}
		// Closed-loop pacing: hold the target cadence when ahead, go as
		// fast as acks allow when behind (sustained-throughput mode).
		next = next.Add(interval)
		if wait := time.Until(next); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if wait < -10*interval && interval > 0 {
			// Hopelessly behind (e.g. server downtime during chaos):
			// reset the schedule instead of bursting to catch up.
			next = time.Now()
		}
	}
}

// postPublish sends one batch. ok means HTTP 200; ambiguous means the
// request may have reached the server (anything past "dial failed").
func postPublish(ctx context.Context, client *http.Client, u string, body []byte) (ok, ambiguous bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return false, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		// A dial failure (server down between requests) definitely never
		// reached the log; anything else is ambiguous.
		return false, !isDialError(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusOK {
		return true, false
	}
	return false, false
}

// isDialError reports whether the round-trip error happened before any
// bytes were written (connection refused / no route), i.e. the request
// certainly never reached the gateway.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// subKind classifies a subscriber worker.
type subKind int

const (
	// subLive holds one long-lived subscription on a concrete topic.
	subLive subKind = iota
	// subWildcard is live on a wildcard pattern (obs/+/Prop, obs/d/#).
	subWildcard
	// subResumer periodically drops the stream on purpose and resumes
	// with Last-Event-ID, exercising the log-backed catch-up path under
	// load.
	subResumer
)

func (k subKind) String() string {
	switch k {
	case subLive:
		return "live"
	case subWildcard:
		return "wildcard"
	default:
		return "resumer"
	}
}

// subscriberResult is one subscriber worker's accounting. The counters
// are atomic because the runner samples them live (phase delivery
// rates); the histogram, lastOffset, and seenIDs are worker-private
// until the fleet is joined. The e2e histogram only records events
// published after the current connection was opened — catch-up history
// would otherwise dominate with stale timestamps.
type subscriberResult struct {
	hist     Histogram
	received atomic.Uint64
	// offsetRegressions counts deliveries at a non-advancing offset —
	// live-queue reordering under concurrent publishers, or post-crash
	// offset reuse; duplication is judged by identity (seenIDs), not this.
	offsetRegressions atomic.Uint64
	goodbyes          atomic.Uint64
	reconnects        atomic.Uint64
	errors            atomic.Uint64
	lastOffset        uint64
	// seenIDs is filled only when the worker is asked to track identity
	// (chaos verification); nil otherwise to bound memory.
	seenIDs map[string]int
}

// subscriber runs one SSE consumer until ctx ends, reconnecting with
// Last-Event-ID on any disconnect (what a real EventSource does).
// dropEvery, when positive, voluntarily closes the stream after that
// many events (resumer behavior).
func subscriber(ctx context.Context, client *http.Client, base, pattern string, buffer int, dropEvery int, res *subscriberResult) {
	first := true
	for ctx.Err() == nil {
		if !first {
			res.reconnects.Add(1)
		}
		first = false
		connStart := time.Now()
		sinceConnect := 0
		err := subscribeSSE(ctx, client, base, pattern, buffer, res.lastOffset, res.lastOffset > 0, func(ev sseEvent) error {
			switch ev.event {
			case "goodbye":
				res.goodbyes.Add(1)
				return io.EOF
			case "message":
				var env envelope
				if err := json.Unmarshal(ev.data, &env); err != nil {
					res.errors.Add(1)
					return nil
				}
				if env.Offset > 0 {
					if env.Offset <= res.lastOffset {
						res.offsetRegressions.Add(1)
					} else {
						// Advance-only: the resume cursor is the highest
						// offset seen, so a reordered straggler on a live
						// queue stream cannot drag a later reconnect back
						// into already-delivered history.
						res.lastOffset = env.Offset
					}
				}
				res.received.Add(1)
				sinceConnect++
				if res.seenIDs != nil {
					if id := env.Headers[hdrID]; id != "" {
						res.seenIDs[id]++
					}
				}
				if s := env.Headers[hdrSent]; s != "" {
					if nanos, err := strconv.ParseInt(s, 10, 64); err == nil {
						sent := time.Unix(0, nanos)
						if !sent.Before(connStart) {
							res.hist.Observe(time.Since(sent))
						}
					}
				}
				if dropEvery > 0 && sinceConnect >= dropEvery {
					return io.EOF
				}
				return nil
			default:
				return nil
			}
		})
		if err != nil && ctx.Err() == nil {
			res.errors.Add(1)
			// Server briefly gone (chaos restart): back off and retry.
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
}

// sparqlResult is one query worker's accounting.
type sparqlResult struct {
	hist    Histogram
	queries uint64
	errors  uint64
}

// sparqlQueries is the mixed read workload over the bulletin graph.
var sparqlQueries = []string{
	`PREFIX dews: <http://dews.africrid.example/ontology/drought#>
SELECT ?b ?p WHERE { ?b dews:probability ?p . FILTER(?p > 0.5) } LIMIT 50`,
	`PREFIX dews: <http://dews.africrid.example/ontology/drought#>
ASK { ?b a dews:Bulletin . }`,
	`PREFIX dews: <http://dews.africrid.example/ontology/drought#>
PREFIX geo: <http://dews.africrid.example/ontology/geo#>
SELECT ?b ?r WHERE { ?b dews:affectsRegion ?r . ?b dews:dviBand ?band . } LIMIT 25`,
}

// sparqlWorker issues the query mix at the given per-worker interval.
func sparqlWorker(ctx context.Context, client *http.Client, base string, interval time.Duration, res *sparqlResult) {
	i := 0
	for ctx.Err() == nil {
		q := sparqlQueries[i%len(sparqlQueries)]
		i++
		start := time.Now()
		err := doSPARQL(ctx, client, base, q)
		if err != nil {
			// A request cut down by the phase deadline is not a server
			// failure; don't count it either way.
			if ctx.Err() != nil {
				return
			}
			res.queries++
			res.errors++
		} else {
			res.queries++
			res.hist.Observe(time.Since(start))
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

func doSPARQL(ctx context.Context, client *http.Client, base, query string) error {
	u := base + "/semweb/sparql?query=" + url.QueryEscape(query)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sparql: %d", resp.StatusCode)
	}
	return nil
}
