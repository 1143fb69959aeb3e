package gateway

import (
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
)

// benchSSEFanoutEncoding measures the per-publish encoding cost of SSE
// fan-out with nSubs subscribers all matching the published topic. Each
// iteration publishes one message on a durable broker and renders the
// SSE frame once per subscriber, exactly what the per-client pumps do.
// With the shared-frame cache the envelope JSON and SSE framing are
// built once per message, so ns/op and allocs/op stay nearly flat as
// nSubs grows — encoding is O(1) per message, only the byte-handing
// loop is O(subscribers).
func benchSSEFanoutEncoding(b *testing.B, nSubs int) {
	l, err := eventlog.Open(eventlog.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	broker := core.NewBroker()
	if _, err := broker.AttachLog(l); err != nil {
		b.Fatal(err)
	}
	subs := make([]*core.Subscription, nSubs)
	for i := range subs {
		s, err := broker.Subscribe("obs/mangaung/Rainfall", 4, core.DropOldest)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = s
	}
	msg := core.Message{
		Topic:   "obs/mangaung/Rainfall",
		Time:    time.Date(2015, 11, 20, 6, 0, 0, 0, time.UTC),
		Payload: map[string]any{"district": "mangaung", "value": 1.25, "unit": "mm"},
		Headers: map[string]string{"unit": "mm"},
	}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.Publish(msg); err != nil {
			b.Fatal(err)
		}
		for _, s := range subs {
			for _, m := range s.Poll(0) {
				sink += len(messageFrame(m))
			}
		}
	}
	if sink == 0 {
		b.Fatal("no frames rendered")
	}
}

func BenchmarkSSEFanoutEncodingSubs1(b *testing.B)  { benchSSEFanoutEncoding(b, 1) }
func BenchmarkSSEFanoutEncodingSubs16(b *testing.B) { benchSSEFanoutEncoding(b, 16) }
func BenchmarkSSEFanoutEncodingSubs64(b *testing.B) { benchSSEFanoutEncoding(b, 64) }

// BenchmarkMessageFrameShared isolates the frame render: the first call
// builds the envelope JSON + SSE framing, every later call (any other
// subscriber) returns the cached bytes.
func BenchmarkMessageFrameShared(b *testing.B) {
	l, err := eventlog.Open(eventlog.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	broker := core.NewBroker()
	if _, err := broker.AttachLog(l); err != nil {
		b.Fatal(err)
	}
	sub, err := broker.Subscribe("obs/#", 1, core.DropOldest)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := broker.Publish(core.Message{
		Topic:   "obs/mangaung/Rainfall",
		Time:    time.Date(2015, 11, 20, 6, 0, 0, 0, time.UTC),
		Payload: map[string]any{"value": 1.25},
	}); err != nil {
		b.Fatal(err)
	}
	msgs := sub.Poll(1)
	if len(msgs) != 1 {
		b.Fatalf("polled %d messages", len(msgs))
	}
	first := messageFrame(msgs[0])
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += len(messageFrame(msgs[0]))
	}
	if sink != b.N*len(first) {
		b.Fatalf("frame changed across calls")
	}
}

// BenchmarkGatewayPublishHTTP keeps an end-to-end number on the remote
// publish path (JSON body → broker batch) for the regression guard.
func BenchmarkGatewayPublishHTTP(b *testing.B) {
	broker := core.NewBroker()
	g, err := New(Config{Broker: broker})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	body := `{"topic":"obs/mangaung/Rainfall","payload":{"value":1.25}}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/publish", strings.NewReader(body))
		g.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("publish status %d", rec.Code)
		}
	}
}

// durableBenchGateway is a gateway over a durable broker behind a real
// loopback listener — the serving path bench/ drives, minus the child
// process.
func durableBenchGateway(b *testing.B) (*core.Broker, *Gateway, *httptest.Server) {
	b.Helper()
	l, err := eventlog.Open(eventlog.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	broker := core.NewBroker()
	if _, err := broker.AttachLog(l); err != nil {
		b.Fatal(err)
	}
	g, err := New(Config{Broker: broker})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(g)
	b.Cleanup(func() {
		_ = g.Close()
		srv.Close()
		_ = l.Close()
	})
	return broker, g, srv
}

// BenchmarkSSEDeliverLatency names the layer the wake protocol moves:
// one iteration is POST /publish → the event's SSE frame read back on a
// live stream, over loopback HTTP. ns/op is the mean; p50-us is the
// median of the per-iteration timings (the bench/ workload's
// deliver_p50_ms without the child process). With a poll cadence in the
// pump this sits at half the cadence; woken by the publish it is the
// path itself.
func BenchmarkSSEDeliverLatency(b *testing.B) {
	_, g, srv := durableBenchGateway(b)
	resp, err := srv.Client().Get(srv.URL + "/subscribe?pattern=lat/%23")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	for g.sseActive.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	sc := newSSEScanner(resp.Body)
	body := `{"topic":"lat/mangaung/Rainfall","payload":{"value":1.25}}`
	took := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		pr, err := srv.Client().Post(srv.URL+"/publish", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, pr.Body)
		pr.Body.Close()
		// One frame is id/event/data lines closed by an empty line.
		for sc.Scan() && sc.Text() != "" {
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		took = append(took, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	b.ReportMetric(float64(took[len(took)/2].Microseconds()), "p50-us")
}

// BenchmarkSSEIdleStreams1000 prices an open stream with nothing to
// say: 1000 parked streams (half queue-backed, half log-tail) and no
// publisher. One iteration is a 100 ms window; cpu-s/s is the process's
// CPU seconds per wall second over the timed windows — what a fleet of
// quiet dashboards costs the one box. A 15 ms ticker per stream is
// ~66 k timer wakeups a second here; parked on their wake signals the
// streams cost nothing until the keep-alive.
func BenchmarkSSEIdleStreams1000(b *testing.B) {
	const streams = 1000
	_, g, srv := durableBenchGateway(b)
	addr := strings.TrimPrefix(srv.URL, "http://")
	// Raw connections that send the request and never read: the client
	// side must not put goroutines or timers of its own into the
	// measurement.
	for i := 0; i < streams; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		query := "pattern=idle/%23"
		if i%2 == 1 {
			query += "&from=1"
		}
		if _, err := fmt.Fprintf(c, "GET /subscribe?%s HTTP/1.1\r\nHost: bench\r\n\r\n", query); err != nil {
			b.Fatal(err)
		}
	}
	for g.sseActive.Load() != streams {
		time.Sleep(time.Millisecond)
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b.ResetTimer()
	cpu0, wall0 := cpu(), time.Now()
	for i := 0; i < b.N; i++ {
		time.Sleep(100 * time.Millisecond)
	}
	b.ReportMetric((cpu()-cpu0).Seconds()/time.Since(wall0).Seconds(), "cpu-s/s")
	b.ReportMetric(float64(g.sseWakeups.Load()), "wakeups")
}
