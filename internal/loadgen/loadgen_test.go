package loadgen

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dews"
)

// TestStreamDeterminism is the seed-reproducibility regression: two
// same-seed streams must render byte-identical event sequences, and
// the seed must actually matter.
func TestStreamDeterminism(t *testing.T) {
	cfg := StreamConfig{Seed: 42, Publisher: 3, BulletinEvery: 10}
	a, err := MarshalEvents(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalEvents(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed streams diverged")
	}
	cfg.Seed = 43
	c, err := MarshalEvents(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestStreamShape sanity-checks generated events: unique IDs, topics
// in the expected universe, bulletins on cadence and valid.
func TestStreamShape(t *testing.T) {
	s := NewStream(StreamConfig{Seed: 7, Publisher: 1, BulletinEvery: 5})
	seen := map[string]bool{}
	bulletins := 0
	for i := 0; i < 100; i++ {
		ev := s.Next()
		if seen[ev.ID] {
			t.Fatalf("duplicate event id %s", ev.ID)
		}
		seen[ev.ID] = true
		if ev.Bulletin != nil {
			bulletins++
			if ev.Topic != "bulletin/"+ev.Bulletin.District {
				t.Fatalf("bulletin topic %q does not match district %q", ev.Topic, ev.Bulletin.District)
			}
			if ev.Bulletin.Probability < 0 || ev.Bulletin.Probability > 1 {
				t.Fatalf("bulletin probability %v outside [0,1]", ev.Bulletin.Probability)
			}
			if ev.Bulletin.Issued.IsZero() {
				t.Fatal("bulletin without deterministic issue time")
			}
		} else if len(ev.Topic) < 5 || ev.Topic[:4] != "obs/" {
			t.Fatalf("unexpected topic %q", ev.Topic)
		}
	}
	if bulletins != 20 {
		t.Fatalf("BulletinEvery=5 over 100 events: got %d bulletins, want 20", bulletins)
	}
}

// TestHistogramQuantiles checks the log-linear histogram's error bound:
// quantile estimates stay within the per-octave sub-bucket resolution
// (~6.25% relative) of the truth.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("count %d, want %d", h.Count(), n)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50000 * time.Microsecond},
		{0.99, 99000 * time.Microsecond},
		{0.999, 99900 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		lo := time.Duration(float64(tc.want) * 0.93)
		hi := time.Duration(float64(tc.want) * 1.07)
		if got < lo || got > hi {
			t.Errorf("q%.3f = %v, want within 7%% of %v", tc.q, got, tc.want)
		}
	}
	if max := h.Max(); max != n*time.Microsecond {
		t.Errorf("max %v, want %v", max, n*time.Microsecond)
	}
}

// TestHistogramMerge: merging partial histograms equals observing
// everything in one.
func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i*i) * time.Microsecond
		all.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Quantile(0.99) != all.Quantile(0.99) || a.Max() != all.Max() {
		t.Fatalf("merged != combined: count %d/%d p99 %v/%v", a.Count(), all.Count(), a.Quantile(0.99), all.Quantile(0.99))
	}
}

// TestBucketBounds: every value maps to a bucket whose representative
// value is an upper bound within the designed relative error.
func TestBucketBounds(t *testing.T) {
	vals := []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		i := bucketIndex(v)
		rep := bucketValue(i)
		if rep < v {
			t.Errorf("bucketValue(%d)=%d below observed %d", i, rep, v)
		}
		if v >= subBuckets && float64(rep) > float64(v)*1.07 {
			t.Errorf("bucketValue(%d)=%d overshoots %d by more than 7%%", i, rep, v)
		}
	}
}

// startTestServer serves what cmd/dewsload -as-server serves:
// dews.NewSystem over the directories behind System.ServeMux, no Run.
// stop ends the SSE streams, then the listener, then the system.
func startTestServer(t *testing.T, logDir, graphDir string) (*dews.System, *httptest.Server, func() error) {
	t.Helper()
	sys, err := dews.NewSystem(dews.Config{LogDir: logDir, GraphDir: graphDir})
	if err != nil {
		t.Fatal(err)
	}
	mux, gw, err := sys.ServeMux()
	if err != nil {
		t.Fatal(errors.Join(err, sys.Close()))
	}
	hs := httptest.NewServer(mux)
	return sys, hs, func() error {
		err := gw.Close()
		hs.Close()
		return errors.Join(err, sys.Close())
	}
}

// TestSteadyRunInProcess drives the whole closed loop against an
// in-process server: publishers, a mixed subscriber fleet, SPARQL
// side-load — then checks the invariants the big harness stands on
// (no duplicates, graph parity, latency actually measured).
func TestSteadyRunInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("load loop")
	}
	sys, hs, stop := startTestServer(t, t.TempDir(), t.TempDir())
	defer func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()

	r := NewRunner(RunConfig{
		Target:          hs.URL,
		Seed:            1,
		Publishers:      4,
		Batch:           20,
		Subscribers:     20,
		WildcardFrac:    0.3,
		ResumerFrac:     0.2,
		ResumeDropEvery: 50,
		SPARQLClients:   2,
		SPARQLInterval:  50 * time.Millisecond,
		BulletinEvery:   10,
		TrackIDs:        true,
	})
	ctx := context.Background()
	if err := r.StartSubscribers(ctx); err != nil {
		t.Fatal(err)
	}
	res := r.RunLoad(ctx, 1500*time.Millisecond)
	r.StopSubscribers()

	if res.Published == 0 || res.PublishErrors > 0 {
		t.Fatalf("published=%d errors=%d", res.Published, res.PublishErrors)
	}
	if res.SSEDelivered == 0 {
		t.Fatal("no SSE deliveries measured")
	}
	if res.SPARQLQueries == 0 || res.SPARQLErrors > 0 {
		t.Fatalf("sparql queries=%d errors=%d", res.SPARQLQueries, res.SPARQLErrors)
	}
	if res.PublishAck.Count == 0 || res.PublishAck.P99Ms <= 0 {
		t.Fatalf("publish ack histogram empty: %+v", res.PublishAck)
	}
	reports := r.SubscriberReports()
	var e2eCount uint64
	kinds := map[string]bool{}
	for _, rep := range reports {
		kinds[rep.Kind] = true
		e2eCount += rep.E2E.Count
	}
	if !kinds["live"] || !kinds["wildcard"] || !kinds["resumer"] {
		t.Fatalf("fleet kinds missing: %v", kinds)
	}
	if e2eCount == 0 {
		t.Fatal("no end-to-end latencies measured")
	}
	// Offset regressions are legitimate live-queue reordering; identity
	// is the exactly-once check (TrackIDs is on above).
	if v := r.ExactlyOnceViolations(); v != 0 {
		t.Fatalf("exactly-once violated: %d duplicate identities", v)
	}

	// Graph parity: every acked bulletin materialized exactly
	// BulletinTriples triples (offset-keyed, so set semantics hold). The
	// dispatcher materializes asynchronously; wait for it first.
	sys.Middleware().Broker().DrainDispatch()
	if got, want := sys.GraphStore().Graph().Len(), int(sys.Materialized())*BulletinTriples; got != want {
		t.Fatalf("graph parity: %d triples, want %d (%d bulletins)", got, want, sys.Materialized())
	}
	if sys.Materialized() == 0 {
		t.Fatal("no bulletins materialized — graph path unexercised")
	}
}

// TestServerRecoveryConvergesGraph: clean close and reopen must
// converge the graph to exactly the log's bulletins (the
// recovery-equals-never-crashed oracle, minus the SIGKILL).
func TestServerRecoveryConvergesGraph(t *testing.T) {
	logDir, graphDir := t.TempDir(), t.TempDir()
	sys, hs, stop := startTestServer(t, logDir, graphDir)

	r := NewRunner(RunConfig{
		Target: hs.URL, Seed: 2, Publishers: 2, Batch: 10,
		BulletinEvery: 5, SyncPublish: true,
	})
	res := r.RunLoad(context.Background(), 500*time.Millisecond)
	if res.Published == 0 {
		t.Fatal("nothing published")
	}
	// Close drains the dispatcher, so the count is final only after it.
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	bulletins := sys.Materialized()

	sys2, err := dews.NewSystem(dews.Config{LogDir: logDir, GraphDir: graphDir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys2.Close(); err != nil {
			t.Error(err)
		}
	}()
	// Repair re-materializes every logged bulletin, and the materializer's
	// subscription then receives the retained bulletin of each district
	// once more (asynchronously — wait for the dispatcher before
	// counting); set semantics keep the triple count at parity.
	broker := sys2.Middleware().Broker()
	broker.DrainDispatch()
	retained := int64(0)
	for _, d := range DefaultDistricts {
		if _, ok := broker.Retained("bulletin/" + d); ok {
			retained++
		}
	}
	if got := sys2.Materialized(); got != bulletins+retained {
		t.Fatalf("recovered materializations %d, want %d logged + %d retained", got, bulletins, retained)
	}
	if got, want := sys2.GraphStore().Graph().Len(), int(bulletins)*BulletinTriples; got != want {
		t.Fatalf("recovered graph: %d triples, want %d", got, want)
	}
}
