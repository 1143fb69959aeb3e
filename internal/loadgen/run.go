package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// RunConfig parameterizes one load run against a gateway base URL.
type RunConfig struct {
	// Target is the gateway base URL (no trailing slash).
	Target string
	// Seed drives every random choice: event streams, topic fan-out,
	// subscriber pattern assignment. Same seed, same generated load.
	Seed int64
	// Publishers is the synthetic sensor count; each runs a closed loop.
	Publishers int
	// Rate is the total target publish rate in events/second across all
	// publishers (0 = as fast as acks allow).
	Rate float64
	// Batch is the events per publish request.
	Batch int
	// Subscribers is the SSE consumer fleet size.
	Subscribers int
	// WildcardFrac and ResumerFrac split the fleet: wildcard patterns
	// (obs/+/Prop, obs/district/#, a few firehose #) and deliberate
	// disconnect-and-resume consumers; the rest hold concrete topics.
	WildcardFrac float64
	ResumerFrac  float64
	// ResumeDropEvery makes resumers drop the stream after this many
	// events and reconnect with Last-Event-ID (default 512).
	ResumeDropEvery int
	// SubBuffer is the per-subscriber queue capacity hint (0 = server
	// default).
	SubBuffer int
	// SPARQLClients and SPARQLInterval shape the query side-load.
	SPARQLClients  int
	SPARQLInterval time.Duration
	// BulletinEvery emits one bulletin per publisher per this many
	// events (0 disables the graph path).
	BulletinEvery int
	// SyncPublish publishes with ?sync=1 so an ack means fsynced —
	// chaos mode uses it to make "no lost acked publish" exact.
	SyncPublish bool
	// TrackIDs makes subscribers record every lg-id they see (chaos
	// verification); costs memory, off for plain steady state.
	TrackIDs bool
	// Districts overrides the topic universe (default: the five Free
	// State districts).
	Districts []string
}

func (c *RunConfig) applyDefaults() {
	if c.Publishers <= 0 {
		c.Publishers = 8
	}
	if c.Batch <= 0 {
		c.Batch = 50
	}
	if c.Subscribers < 0 {
		c.Subscribers = 0
	}
	if c.ResumeDropEvery <= 0 {
		c.ResumeDropEvery = 512
	}
	if c.SPARQLInterval <= 0 {
		c.SPARQLInterval = 250 * time.Millisecond
	}
	if len(c.Districts) == 0 {
		c.Districts = DefaultDistricts
	}
}

// subscriberWorker pairs a worker's config with its live accounting.
type subscriberWorker struct {
	pattern   string
	kind      subKind
	dropEvery int
	res       subscriberResult
}

// Runner owns a load run: a subscriber fleet that stays connected
// across publisher phases (and across chaos kills — consumers
// reconnect with Last-Event-ID like real EventSources), plus
// closed-loop publisher/SPARQL phases run against it.
type Runner struct {
	cfg    RunConfig
	client *http.Client

	subs    []*subscriberWorker
	subWG   sync.WaitGroup
	subStop context.CancelFunc

	// Acked accumulates publish outcomes across every phase of the run.
	Acked *AckedSet

	// streams persist across phases so sequence numbers never restart.
	streams []*Stream
}

// NewRunner builds a runner (no connections yet).
func NewRunner(cfg RunConfig) *Runner {
	cfg.applyDefaults()
	transport := &http.Transport{
		MaxIdleConns:        cfg.Publishers + cfg.SPARQLClients + 16,
		MaxIdleConnsPerHost: cfg.Publishers + cfg.SPARQLClients + 16,
		IdleConnTimeout:     30 * time.Second,
	}
	r := &Runner{
		cfg:    cfg,
		client: &http.Client{Transport: transport},
		Acked:  NewAckedSet(),
	}
	for i := 0; i < cfg.Publishers; i++ {
		r.streams = append(r.streams, NewStream(StreamConfig{
			Seed:          cfg.Seed,
			Publisher:     i,
			Districts:     cfg.Districts,
			BulletinEvery: cfg.BulletinEvery,
		}))
	}
	return r
}

// subscriberPatterns deterministically assigns the fleet's patterns.
func (r *Runner) subscriberPatterns() []*subscriberWorker {
	cfg := r.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + 9001))
	props := defaultProperties()
	n := cfg.Subscribers
	nResume := int(float64(n) * cfg.ResumerFrac)
	nWild := int(float64(n) * cfg.WildcardFrac)
	workers := make([]*subscriberWorker, 0, n)
	for i := 0; i < n; i++ {
		w := &subscriberWorker{}
		district := cfg.Districts[rng.Intn(len(cfg.Districts))]
		prop := props[rng.Intn(len(props))]
		switch {
		case i < nResume:
			w.kind = subResumer
			w.pattern = "obs/" + district + "/#"
			w.dropEvery = cfg.ResumeDropEvery
		case i < nResume+nWild:
			w.kind = subWildcard
			switch rng.Intn(3) {
			case 0:
				w.pattern = "obs/+/" + prop
			case 1:
				w.pattern = "obs/" + district + "/#"
			default:
				w.pattern = "#"
			}
		default:
			w.kind = subLive
			w.pattern = "obs/" + district + "/" + prop
		}
		if cfg.TrackIDs {
			w.res.seenIDs = make(map[string]int)
		}
		workers = append(workers, w)
	}
	return workers
}

// StartSubscribers connects the fleet and blocks until the server
// reports every stream active (or ctx/deadline ends).
func (r *Runner) StartSubscribers(ctx context.Context) error {
	if r.cfg.Subscribers == 0 {
		return nil
	}
	subCtx, cancel := context.WithCancel(ctx)
	r.subStop = cancel
	r.subs = r.subscriberPatterns()
	for _, w := range r.subs {
		w := w
		r.subWG.Add(1)
		go func() {
			defer r.subWG.Done()
			subscriber(subCtx, r.client, r.cfg.Target, w.pattern, r.cfg.SubBuffer, w.dropEvery, &w.res)
		}()
	}
	// Wait for the fleet to be fully connected so the measured phase
	// starts from a steady state.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := FetchStats(ctx, r.client, r.cfg.Target)
		if err == nil && st.SSEClients >= int64(r.cfg.Subscribers) {
			return nil
		}
		if time.Now().After(deadline) {
			got := int64(-1)
			if err == nil {
				got = st.SSEClients
			}
			return fmt.Errorf("loadgen: only %d of %d subscribers connected after 60s (last err: %v)", got, r.cfg.Subscribers, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// StopSubscribers tears the fleet down and returns once every worker
// has exited. Safe to call once.
func (r *Runner) StopSubscribers() {
	if r.subStop != nil {
		r.subStop()
	}
	r.subWG.Wait()
}

// LoadResult is one publisher phase's outcome.
type LoadResult struct {
	DurationSecs  float64        `json:"duration_secs"`
	Published     uint64         `json:"published"`
	Batches       uint64         `json:"batches"`
	PublishErrors uint64         `json:"publish_errors"`
	ThroughputEPS float64        `json:"throughput_eps"`
	PublishAck    LatencySummary `json:"publish_ack"`
	SPARQL        LatencySummary `json:"sparql"`
	SPARQLQueries uint64         `json:"sparql_queries"`
	SPARQLErrors  uint64         `json:"sparql_errors"`
	// SSEDelivered counts subscriber deliveries during this phase;
	// DeliveredEPS is its rate.
	SSEDelivered uint64  `json:"sse_delivered"`
	DeliveredEPS float64 `json:"delivered_eps"`
}

// RunLoad drives the publisher and SPARQL workers for the given
// duration against the (already started) subscriber fleet.
func (r *Runner) RunLoad(ctx context.Context, duration time.Duration) *LoadResult {
	cfg := r.cfg
	phaseCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	var interval time.Duration
	if cfg.Rate > 0 {
		perPublisher := cfg.Rate / float64(cfg.Publishers)
		interval = time.Duration(float64(cfg.Batch) / perPublisher * float64(time.Second))
	}

	deliveredBefore := r.deliveredTotal()
	pubResults := make([]publisherResult, cfg.Publishers)
	sparqlResults := make([]sparqlResult, cfg.SPARQLClients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Publishers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			publisher(phaseCtx, r.client, cfg.Target, r.streams[i], cfg.Batch, interval, cfg.SyncPublish, r.Acked, &pubResults[i])
		}()
	}
	for i := 0; i < cfg.SPARQLClients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sparqlWorker(phaseCtx, r.client, cfg.Target, cfg.SPARQLInterval, &sparqlResults[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &LoadResult{DurationSecs: elapsed.Seconds()}
	var ackHist, sparqlHist Histogram
	for i := range pubResults {
		p := &pubResults[i]
		ackHist.Merge(&p.hist)
		res.Published += p.published
		res.Batches += p.batches
		res.PublishErrors += p.errors
	}
	for i := range sparqlResults {
		q := &sparqlResults[i]
		sparqlHist.Merge(&q.hist)
		res.SPARQLQueries += q.queries
		res.SPARQLErrors += q.errors
	}
	res.PublishAck = ackHist.Summary()
	res.SPARQL = sparqlHist.Summary()
	res.ThroughputEPS = float64(res.Published) / elapsed.Seconds()
	res.SSEDelivered = r.deliveredTotal() - deliveredBefore
	res.DeliveredEPS = float64(res.SSEDelivered) / elapsed.Seconds()
	return res
}

// deliveredTotal sums subscriber deliveries so far.
func (r *Runner) deliveredTotal() uint64 {
	var total uint64
	for _, w := range r.subs {
		total += w.res.received.Load()
	}
	return total
}

// SubscriberReport aggregates the fleet per kind after StopSubscribers.
type SubscriberReport struct {
	Kind     string `json:"kind"`
	Count    int    `json:"count"`
	Received uint64 `json:"received"`
	// OffsetRegressions counts deliveries whose offset did not advance.
	// On live queue-backed streams concurrent publishers' batch fan-outs
	// interleave (stamping is ordered under the broker lock, queue offers
	// are not), so a non-zero value is reordering, not duplication —
	// identity tracking (TrackIDs) is the duplicate oracle.
	OffsetRegressions uint64         `json:"offset_regressions"`
	Goodbyes          uint64         `json:"goodbyes"`
	Reconnects        uint64         `json:"reconnects"`
	Errors            uint64         `json:"errors"`
	E2E               LatencySummary `json:"e2e"`
}

// SubscriberReports aggregates per-kind results. Call after
// StopSubscribers (worker histograms are not synchronized).
func (r *Runner) SubscriberReports() []SubscriberReport {
	byKind := map[subKind]*SubscriberReport{}
	hists := map[subKind]*Histogram{}
	for _, w := range r.subs {
		rep, ok := byKind[w.kind]
		if !ok {
			rep = &SubscriberReport{Kind: w.kind.String()}
			byKind[w.kind] = rep
			hists[w.kind] = &Histogram{}
		}
		rep.Count++
		rep.Received += w.res.received.Load()
		rep.OffsetRegressions += w.res.offsetRegressions.Load()
		rep.Goodbyes += w.res.goodbyes.Load()
		rep.Reconnects += w.res.reconnects.Load()
		rep.Errors += w.res.errors.Load()
		hists[w.kind].Merge(&w.res.hist)
	}
	var out []SubscriberReport
	for _, k := range []subKind{subLive, subWildcard, subResumer} {
		if rep, ok := byKind[k]; ok {
			rep.E2E = hists[k].Summary()
			out = append(out, *rep)
		}
	}
	return out
}

// ExactlyOnceViolations counts (subscriber, id) pairs where one stream
// delivered the same event identity more than once. Offsets can be
// legitimately reissued after a crash loses unsynced tail records, so
// identity — not offset — is the sound exactly-once oracle under
// chaos. Call after StopSubscribers (TrackIDs runs only).
func (r *Runner) ExactlyOnceViolations() int {
	violations := 0
	for _, w := range r.subs {
		for _, n := range w.res.seenIDs {
			if n > 1 {
				violations++
			}
		}
	}
	return violations
}

// StatsSnapshot is the subset of /stats the harness keys on.
type StatsSnapshot struct {
	SSEClients      int64
	SSEEvents       int64
	NextOffset      uint64
	OldestOffset    uint64
	BrokerPublished uint64
	Triples         int
	Raw             map[string]any
}

// FetchStats pulls and decodes /stats.
func FetchStats(ctx context.Context, client *http.Client, base string) (StatsSnapshot, error) {
	var snap StatsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("stats: %d", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return snap, err
	}
	snap.Raw = raw
	snap.SSEClients = int64(numAt(raw, "gateway", "sse_clients"))
	snap.SSEEvents = int64(numAt(raw, "gateway", "sse_events_sent"))
	snap.NextOffset = uint64(numAt(raw, "eventlog", "next_offset"))
	snap.OldestOffset = uint64(numAt(raw, "eventlog", "oldest_offset"))
	snap.BrokerPublished = uint64(numAt(raw, "broker", "published"))
	snap.Triples = int(numAt(raw, "extra", "semweb", "bulletin_triples"))
	return snap, nil
}

// numAt walks a decoded JSON object path to a float64 (0 when absent).
func numAt(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, key := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[key]
	}
	n, _ := cur.(float64)
	return n
}

// WaitHealthy polls /healthz until the server answers 200 or the
// deadline passes — used after spawning or restarting the server.
func WaitHealthy(ctx context.Context, client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s not healthy after %v (last: %v)", base, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
