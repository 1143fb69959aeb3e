package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestStressManySSESubscribers drives the gateway the way the ROADMAP
// intends it to be used: a large fan-out of concurrent network
// subscribers over one published batch. Fast consumers (ample buffers)
// must see every message of the batch in publish order with zero
// misses; deliberately under-buffered consumers must be evicted as
// slow, with their losses drop-accounted at the broker. Run with -race.
func TestStressManySSESubscribers(t *testing.T) {
	const (
		fastClients = 50
		slowClients = 5
		batchSize   = 200
	)
	// Pumps are woken once the whole batch has fanned out: fast clients
	// absorb it (buffer > batch), slow clients (buffer 1) have dropped
	// nearly all of it by the time they look.
	b, g, srv := testGateway(t, nil)

	var wg sync.WaitGroup
	fastGot := make([][]Envelope, fastClients)
	fastErr := make([]error, fastClients)
	for i := 0; i < fastClients; i++ {
		s := subscribeSSE(t, srv, "stress/#", map[string]string{"buffer": "512"})
		wg.Add(1)
		go func(i int, s *sseStream) {
			defer wg.Done()
			for len(fastGot[i]) < batchSize {
				ev, err := s.Next()
				if err != nil {
					fastErr[i] = fmt.Errorf("after %d events: %w", len(fastGot[i]), err)
					return
				}
				if ev.Event != "message" {
					fastErr[i] = fmt.Errorf("fast client evicted: %s %s", ev.Event, ev.Data)
					return
				}
				var env Envelope
				if err := json.Unmarshal([]byte(ev.Data), &env); err != nil {
					fastErr[i] = err
					return
				}
				fastGot[i] = append(fastGot[i], env)
			}
		}(i, s)
	}

	slowReason := make([]string, slowClients)
	for i := 0; i < slowClients; i++ {
		s := subscribeSSE(t, srv, "stress/#", map[string]string{"buffer": "1"})
		wg.Add(1)
		go func(i int, s *sseStream) {
			defer wg.Done()
			for {
				ev, err := s.Next()
				if err != nil {
					slowReason[i] = err.Error()
					return
				}
				if ev.Event == "goodbye" {
					var detail struct {
						Reason string `json:"reason"`
					}
					_ = json.Unmarshal([]byte(ev.Data), &detail)
					slowReason[i] = detail.Reason
					return
				}
			}
		}(i, s)
	}

	// All subscriptions registered before anything is published.
	waitFor(t, func() bool {
		return b.Stats().Subscriptions == fastClients+slowClients
	})

	batch := make([]Envelope, batchSize)
	for i := range batch {
		batch[i] = Envelope{
			Topic:   fmt.Sprintf("stress/district-%d/seq-%d", i%5, i),
			Payload: json.RawMessage(fmt.Sprintf("%d", i)),
		}
	}
	code, out := postJSON(t, srv, "/publish", batch)
	if code != http.StatusOK {
		t.Fatalf("publish: %d %v", code, out)
	}
	wantDeliveries := float64(batchSize * (fastClients + slowClients))
	if out["deliveries"].(float64) != wantDeliveries {
		t.Fatalf("deliveries = %v, want %v", out["deliveries"], wantDeliveries)
	}

	wg.Wait()

	// Every fast consumer saw the whole batch, in publish order.
	for i := 0; i < fastClients; i++ {
		if fastErr[i] != nil {
			t.Fatalf("fast client %d: %v", i, fastErr[i])
		}
		for j, env := range fastGot[i] {
			want := fmt.Sprintf("stress/district-%d/seq-%d", j%5, j)
			if env.Topic != want {
				t.Fatalf("fast client %d event %d: topic %q, want %q", i, j, env.Topic, want)
			}
		}
	}
	// Every slow consumer was evicted for cause.
	for i, reason := range slowReason {
		if reason != "slow-consumer" {
			t.Errorf("slow client %d ended with %q, want slow-consumer eviction", i, reason)
		}
	}
	if got := g.slowDisconnects.Load(); got != slowClients {
		t.Errorf("slow disconnects = %d, want %d", got, slowClients)
	}
	// Slow-consumer losses remain drop-accounted at the broker even
	// after their subscriptions were removed. (A lower bound only: once
	// a client is evicted its closed mailbox silently ignores the rest
	// of the batch, and how soon eviction lands depends on pump timing.)
	waitFor(t, func() bool { return b.Stats().Subscriptions <= fastClients })
	if drops := b.Stats().Drops; drops < slowClients {
		t.Errorf("broker drops = %d, want ≥ %d (one per evicted client)", drops, slowClients)
	}
}
