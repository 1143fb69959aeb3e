package gateway

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The pump has no poll cadence: these tests pin the wake protocol's
// observable contract through the counters /stats reports as sse_wakeups
// (times a pump was woken by its source) and sse_writes (coalesced data
// writes).

// TestIdleStreamsCostNoWakeups: open streams with nothing to deliver —
// queue-backed and log-tail alike — park on their source and stay
// parked. Under the old 15 ms ticker these 50 streams woke ~670 times in
// the window.
func TestIdleStreamsCostNoWakeups(t *testing.T) {
	_, g, srv := durableGatewayG(t, t.TempDir(), nil)
	for i := 0; i < 25; i++ {
		subscribeSSE(t, srv, "idle/#", nil)
		resumeSSE(t, srv, "idle/#", "", map[string]string{"from": "1"})
	}
	waitFor(t, func() bool { return g.sseActive.Load() == 50 })
	time.Sleep(200 * time.Millisecond)
	if n := g.sseWakeups.Load(); n != 0 {
		t.Errorf("50 idle streams were woken %d times in 200ms, want 0", n)
	}
	if n := g.sseWrites.Load(); n != 0 {
		t.Errorf("50 idle streams wrote %d times, want 0", n)
	}
}

// TestBatchIsOneWakeOneWrite: a 50-event batch reaches a live stream as
// one wakeup and one coalesced write — the broker signals a mailbox once
// per publish call, after the whole fan-out.
func TestBatchIsOneWakeOneWrite(t *testing.T) {
	b, _, srv := testGateway(t, nil)
	s := subscribeSSE(t, srv, "batch/#", nil)
	waitFor(t, func() bool { return b.Stats().Subscriptions == 1 })
	msgs := make([]core.Message, 50)
	for i := range msgs {
		msgs[i] = core.Message{Topic: fmt.Sprintf("batch/%d", i), Payload: i}
	}
	if _, err := b.PublishBatch(msgs); err != nil {
		t.Fatal(err)
	}
	s.collect(t, 50)
	_, stats := getJSON(t, srv, "/stats")
	gw := stats["gateway"].(map[string]any)
	for name, want := range map[string]float64{"sse_wakeups": 1, "sse_writes": 1, "sse_events_sent": 50} {
		if got := gw[name].(float64); got != want {
			t.Errorf("%s = %v after one batch of 50, want %v", name, got, want)
		}
	}
}

// TestParkedTailerWokenByCommit: a log-tail stream parked at the tail
// delivers each publish — there is no ticker, so only the broker's
// commit signal can have woken it — and Shutdown still interrupts the
// parked tailer with a goodbye.
func TestParkedTailerWokenByCommit(t *testing.T) {
	b, g, srv := durableGatewayG(t, t.TempDir(), nil)
	s := resumeSSE(t, srv, "evt/#", "", map[string]string{"from": "1"})
	waitFor(t, func() bool { return g.sseActive.Load() == 1 })
	for want := uint64(1); want <= 5; want++ {
		publishTicks(t, b, 1)
		if id, _ := nextMessage(t, s); id != want {
			t.Fatalf("tailer delivered offset %d, want %d", id, want)
		}
	}
	if n := g.sseWakeups.Load(); n == 0 {
		t.Error("five deliveries from the tail without a single commit wakeup")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a parked tailer: %v", err)
	}
	ev, err := s.Next()
	if err != nil || ev.Event != "goodbye" || !strings.Contains(ev.Data, "shutdown") {
		t.Fatalf("parked tailer ended with %+v (%v), want a shutdown goodbye", ev, err)
	}
}

// TestKeepAliveOnlyWhenIdle: data is its own heartbeat. A stream that
// keeps receiving events inside every KeepAlive window sees no comment;
// once it falls silent the comment arrives.
func TestKeepAliveOnlyWhenIdle(t *testing.T) {
	const keepAlive = 300 * time.Millisecond
	b, _, srv := testGateway(t, func(c *Config) { c.KeepAlive = keepAlive })
	s := subscribeSSE(t, srv, "ka/#", nil)
	waitFor(t, func() bool { return b.Stats().Subscriptions == 1 })

	// lines reports every raw line of the stream, comments included.
	lines := make(chan string, 256)
	go func() {
		defer close(lines)
		for s.sc.Scan() {
			lines <- s.sc.Text()
		}
	}()
	// Busy for two keep-alive periods, an event every tenth of one.
	const events = 20
	for i := 0; i < events; i++ {
		if _, err := b.Publish(core.Message{Topic: "ka/x", Payload: i}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(keepAlive / 10)
	}
	sawData := 0
	for busy := true; busy; {
		select {
		case line := <-lines:
			if strings.HasPrefix(line, ":") {
				t.Fatalf("keep-alive comment on a busy stream after %d data lines", sawData)
			}
			if strings.HasPrefix(line, "data: ") {
				sawData++
			}
		default:
			busy = false
		}
	}
	if sawData != events {
		t.Fatalf("busy phase delivered %d events, want %d", sawData, events)
	}
	// Now silent: the heartbeat must show up.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before a keep-alive")
			}
			if strings.HasPrefix(line, ":") {
				return
			}
		case <-deadline:
			t.Fatal("idle stream sent no keep-alive")
		}
	}
}
