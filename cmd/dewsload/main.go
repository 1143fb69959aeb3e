// Command dewsload is the closed-loop load and chaos harness for the
// DEWS gateway: wsngen-style synthetic sensor publishers, a mixed SSE
// subscriber fleet (live, wildcard, Last-Event-ID resumers), and a
// SPARQL query stream, all driven against the real HTTP stack, with
// end-to-end latency measured through embedded publish timestamps.
//
// Modes:
//
//	-mode steady   sustained load for -duration; report throughput and
//	               p50/p99/p999 publish-ack and publish→SSE latencies
//	-mode chaos    same load with -kills SIGKILLs of the server process
//	               at randomized points, each followed by a restart;
//	               afterwards the recovery oracles must hold: no lost
//	               acked publish, exactly-once delivery per stream,
//	               contiguous replay, graph-triple parity with the log
//	-mode smoke    a bounded steady segment plus one chaos cycle with
//	               small presets — the CI configuration
//
// Unless -target points at an external server, dewsload re-execs
// itself (-as-server) as a child process owning the durable stores, so
// a SIGKILL is a real process death, not a simulated one. The child is
// the deployed assembly: dews.NewSystem over the two directories behind
// System.ServeMux, without a simulation Run. The report
// is written as machine-readable JSON (-out, default BENCH_load.json).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dews"
	"repro/internal/loadgen"
	"repro/internal/loadgen/oracle"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dewsload:", err)
		os.Exit(1)
	}
}

type options struct {
	mode         string
	addr         string
	target       string
	duration     time.Duration
	rate         float64
	publishers   int
	batch        int
	subscribers  int
	wildcardFrac float64
	resumerFrac  float64
	sparql       int
	bulletinEach int
	seed         int64
	kills        int
	out          string
	dir          string
	keep         bool
	pr           int
	note         string

	asServer bool
	logDir   string
	graphDir string
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("dewsload", flag.ContinueOnError)
	fs.StringVar(&o.mode, "mode", "steady", "steady | chaos | smoke | full (steady then chaos at the configured scale)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9177", "address the harness server listens on")
	fs.StringVar(&o.target, "target", "", "drive an external gateway base URL instead of spawning one (disables chaos)")
	fs.DurationVar(&o.duration, "duration", 60*time.Second, "load phase length")
	fs.Float64Var(&o.rate, "rate", 1000, "target publish rate, events/sec across all publishers (0 = unpaced)")
	fs.IntVar(&o.publishers, "publishers", 8, "closed-loop publisher count")
	fs.IntVar(&o.batch, "batch", 50, "events per publish request")
	fs.IntVar(&o.subscribers, "subscribers", 1000, "SSE subscriber fleet size")
	fs.Float64Var(&o.wildcardFrac, "wildcard-frac", 0.25, "fraction of subscribers on wildcard patterns")
	fs.Float64Var(&o.resumerFrac, "resumer-frac", 0.15, "fraction of subscribers that drop and resume with Last-Event-ID")
	fs.IntVar(&o.sparql, "sparql", 4, "concurrent SPARQL query workers")
	fs.IntVar(&o.bulletinEach, "bulletin-every", 50, "emit a bulletin every n-th event per publisher (0 = never)")
	fs.Int64Var(&o.seed, "seed", 1, "run seed: event streams, fleet patterns and kill points all derive from it")
	fs.IntVar(&o.kills, "kills", 1, "chaos mode: SIGKILL+restart cycles")
	fs.StringVar(&o.out, "out", "BENCH_load.json", "report path")
	fs.StringVar(&o.dir, "dir", "", "data directory (default: a temp dir, removed unless -keep)")
	fs.BoolVar(&o.keep, "keep", false, "keep the data directory")
	fs.IntVar(&o.pr, "pr", 0, "PR number stamped into the report")
	fs.StringVar(&o.note, "note", "", "free-form note stamped into the report")
	fs.BoolVar(&o.asServer, "as-server", false, "internal: run the harness server child")
	fs.StringVar(&o.logDir, "log-dir", "", "as-server: event log directory")
	fs.StringVar(&o.graphDir, "graph-dir", "", "as-server: graph store directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.asServer {
		return serveChild(o)
	}
	switch o.mode {
	case "steady", "chaos", "smoke", "full":
	default:
		return fmt.Errorf("unknown -mode %q", o.mode)
	}
	if o.mode == "smoke" {
		// CI preset: bounded and race-detector friendly. One steady
		// segment plus one chaos cycle, small fleet.
		o.duration = 8 * time.Second
		o.rate = 400
		o.publishers = 4
		o.batch = 25
		o.subscribers = 150
		o.sparql = 2
		o.bulletinEach = 25
		o.kills = 1
	}
	if o.target != "" && o.mode != "steady" {
		return fmt.Errorf("-target supports -mode steady only (chaos needs to own the server process)")
	}
	return orchestrate(o)
}

// serveChild is the re-exec'd server process: dews.System over the
// durable directories behind one HTTP listener, shut down cleanly on
// SIGTERM (SIGKILL is the point of chaos mode and needs no handler).
func serveChild(o *options) error {
	if o.logDir == "" || o.graphDir == "" {
		return fmt.Errorf("-as-server needs -log-dir and -graph-dir")
	}
	sys, err := dews.NewSystem(dews.Config{LogDir: o.logDir, GraphDir: o.graphDir})
	if err != nil {
		return err
	}
	mux, gw, err := sys.ServeMux()
	if err != nil {
		return errors.Join(err, sys.Close())
	}
	httpSrv := &http.Server{Addr: o.addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case <-sigc:
	}
	// Drain order matters: goodbyes end the SSE streams, which lets the
	// HTTP server's Shutdown return, then the stores flush and close.
	_ = gw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	return sys.Close()
}

// child manages the spawned server process.
type child struct {
	cmd     *exec.Cmd
	opts    *options
	stopped bool
}

func spawnServer(o *options) (*child, error) {
	cmd := exec.Command(os.Args[0],
		"-as-server",
		"-addr", o.addr,
		"-log-dir", o.logDir,
		"-graph-dir", o.graphDir,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning server: %w", err)
	}
	return &child{cmd: cmd, opts: o}, nil
}

// kill delivers SIGKILL — the crash under test — and reaps the corpse.
func (c *child) kill() error {
	if err := c.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = c.cmd.Wait()
	return nil
}

// stop asks for a clean shutdown and waits for it. Idempotent: the
// chaos path stops the child itself before the offline oracles run,
// and withServer's final stop must then be a no-op.
func (c *child) stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		return fmt.Errorf("server did not stop within 30s of SIGTERM")
	}
}

// Report is the BENCH_load.json shape. tools/benchguard gates the
// steady throughput and latency fields; keep them stable.
type Report struct {
	Schema    string         `json:"schema"`
	PR        int            `json:"pr,omitempty"`
	Note      string         `json:"note,omitempty"`
	Generated string         `json:"generated"`
	Mode      string         `json:"mode"`
	Seed      int64          `json:"seed"`
	Config    map[string]any `json:"config"`
	Steady    *PhaseReport   `json:"steady,omitempty"`
	Chaos     *ChaosReport   `json:"chaos,omitempty"`
	Passed    bool           `json:"passed"`
}

// PhaseReport is one measured load phase.
type PhaseReport struct {
	loadgen.LoadResult
	SubscriberCount int                        `json:"subscriber_count"`
	Subscribers     []loadgen.SubscriberReport `json:"subscribers"`
	Replay          *loadgen.ReplayFacts       `json:"replay,omitempty"`
}

// ChaosReport is the kill-cycle phase plus its recovery oracles.
type ChaosReport struct {
	Kills                 int                        `json:"kills"`
	RestartMillis         []int64                    `json:"restart_millis"`
	Load                  loadgen.LoadResult         `json:"load"`
	SubscriberCount       int                        `json:"subscriber_count"`
	Subscribers           []loadgen.SubscriberReport `json:"subscribers"`
	ExactlyOnceViolations int                        `json:"exactly_once_violations"`
	// OffsetRegressions counts deliveries at non-advancing offsets.
	// After a crash loses unsynced tail records their offsets are
	// legitimately reissued to new events, so this is informational —
	// identity-based ExactlyOnceViolations is the correctness oracle.
	OffsetRegressions uint64                  `json:"offset_regressions"`
	Replay            *loadgen.ReplayFacts    `json:"replay"`
	Log               *oracle.LogFacts        `json:"log"`
	Durability        oracle.DurabilityReport `json:"durability"`
	Graph             *oracle.GraphReport     `json:"graph"`
	Passed            bool                    `json:"passed"`
	Failures          []string                `json:"failures,omitempty"`
}

func orchestrate(o *options) error {
	report := &Report{
		Schema:    "dewsload/v1",
		PR:        o.pr,
		Note:      o.note,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Mode:      o.mode,
		Seed:      o.seed,
		Config: map[string]any{
			"duration_secs":  o.duration.Seconds(),
			"rate_eps":       o.rate,
			"publishers":     o.publishers,
			"batch":          o.batch,
			"subscribers":    o.subscribers,
			"wildcard_frac":  o.wildcardFrac,
			"resumer_frac":   o.resumerFrac,
			"sparql":         o.sparql,
			"bulletin_every": o.bulletinEach,
			"kills":          o.kills,
		},
		Passed: true,
	}

	if o.dir == "" {
		dir, err := os.MkdirTemp("", "dewsload-*")
		if err != nil {
			return err
		}
		o.dir = dir
		if !o.keep {
			defer os.RemoveAll(dir)
		}
	} else if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	o.logDir = filepath.Join(o.dir, "eventlog")
	o.graphDir = filepath.Join(o.dir, "graph")

	switch o.mode {
	case "steady":
		if err := runSteady(o, report); err != nil {
			return err
		}
	case "chaos":
		if err := runChaos(o, report); err != nil {
			return err
		}
	case "smoke", "full":
		if err := runSteady(o, report); err != nil {
			return err
		}
		// Fresh dirs for the chaos cycle so its oracles audit only what
		// the chaos segment wrote.
		o.logDir = filepath.Join(o.dir, "eventlog-chaos")
		o.graphDir = filepath.Join(o.dir, "graph-chaos")
		if err := runChaos(o, report); err != nil {
			return err
		}
	}

	if err := writeReport(o.out, report); err != nil {
		return err
	}
	fmt.Printf("report: %s\n", o.out)
	if !report.Passed {
		return fmt.Errorf("oracles failed — see %s", o.out)
	}
	return nil
}

func (o *options) runConfig(sync, track bool) loadgen.RunConfig {
	return loadgen.RunConfig{
		Target:        o.target,
		Seed:          o.seed,
		Publishers:    o.publishers,
		Rate:          o.rate,
		Batch:         o.batch,
		Subscribers:   o.subscribers,
		WildcardFrac:  o.wildcardFrac,
		ResumerFrac:   o.resumerFrac,
		SPARQLClients: o.sparql,
		BulletinEvery: o.bulletinEach,
		SyncPublish:   sync,
		TrackIDs:      track,
	}
}

// withServer spawns the child server (unless -target), waits for
// health, runs fn, and cleanly stops the child afterwards.
func withServer(o *options, fn func(base string, c *child) error) error {
	base := o.target
	var c *child
	if base == "" {
		if err := os.MkdirAll(o.logDir, 0o755); err != nil {
			return err
		}
		if err := os.MkdirAll(o.graphDir, 0o755); err != nil {
			return err
		}
		var err error
		c, err = spawnServer(o)
		if err != nil {
			return err
		}
		base = "http://" + o.addr
		if err := loadgen.WaitHealthy(context.Background(), http.DefaultClient, base, 30*time.Second); err != nil {
			_ = c.kill()
			return err
		}
	}
	err := fn(base, c)
	if c != nil {
		if stopErr := c.stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}
	return err
}

func runSteady(o *options, report *Report) error {
	fmt.Fprintf(os.Stderr, "== steady: %d subscribers, %d publishers, %.0f events/s for %v\n",
		o.subscribers, o.publishers, o.rate, o.duration)
	return withServer(o, func(base string, _ *child) error {
		cfg := o.runConfig(false, false)
		cfg.Target = base
		r := loadgen.NewRunner(cfg)
		ctx := context.Background()
		if err := r.StartSubscribers(ctx); err != nil {
			return err
		}
		res := r.RunLoad(ctx, o.duration)
		phase := &PhaseReport{LoadResult: *res, SubscriberCount: o.subscribers}

		// Replay audit: the whole log back through one firehose stream.
		st, err := loadgen.FetchStats(ctx, http.DefaultClient, base)
		if err != nil {
			return err
		}
		if st.NextOffset > 1 {
			facts, err := loadgen.VerifyReplay(ctx, http.DefaultClient, base, st.NextOffset-1, 5*time.Minute)
			if err != nil {
				return fmt.Errorf("verification replay: %w", err)
			}
			phase.Replay = facts
			if !facts.Contiguous || facts.Duplicated > 0 {
				report.Passed = false
			}
		}
		r.StopSubscribers()
		// Per-stream offset regressions are reported but not gated:
		// live queue-backed streams reorder when concurrent publishers'
		// fan-outs interleave. Duplication is judged by the replay id
		// audit above (and, in chaos mode, identity tracking).
		phase.Subscribers = r.SubscriberReports()
		report.Steady = phase
		fmt.Fprintf(os.Stderr, "   %.0f events/s published, %.0f events/s delivered, e2e p99 %s\n",
			res.ThroughputEPS, res.DeliveredEPS, fmtP99(phase.Subscribers))
		return nil
	})
}

func fmtP99(subs []loadgen.SubscriberReport) string {
	var h float64
	for _, s := range subs {
		if s.E2E.P99Ms > h {
			h = s.E2E.P99Ms
		}
	}
	return fmt.Sprintf("%.1fms", h)
}

func runChaos(o *options, report *Report) error {
	fmt.Fprintf(os.Stderr, "== chaos: %d kill cycle(s) under load for %v\n", o.kills, o.duration)
	return withServer(o, func(base string, c *child) error {
		if c == nil {
			return fmt.Errorf("chaos needs to own the server process")
		}
		cfg := o.runConfig(true, true)
		cfg.Target = base
		r := loadgen.NewRunner(cfg)
		ctx := context.Background()
		if err := r.StartSubscribers(ctx); err != nil {
			return err
		}

		// Kill points derive from the seed: spread across the load
		// window with ±25% jitter, never in the final fifth (recovery
		// needs runway).
		rng := rand.New(rand.NewSource(o.seed + 777))
		killAt := make([]time.Duration, o.kills)
		slot := o.duration * 4 / 5 / time.Duration(o.kills+1)
		for i := range killAt {
			jitter := time.Duration((rng.Float64() - 0.5) * float64(slot) / 2)
			killAt[i] = slot*time.Duration(i+1) + jitter
		}

		chaos := &ChaosReport{Kills: o.kills, Passed: true}
		start := time.Now()
		controllerDone := make(chan error, 1)
		go func() {
			for _, at := range killAt {
				if wait := time.Until(start.Add(at)); wait > 0 {
					time.Sleep(wait)
				}
				fmt.Fprintf(os.Stderr, "   SIGKILL at t=%v\n", time.Since(start).Round(time.Millisecond))
				if err := c.kill(); err != nil {
					controllerDone <- err
					return
				}
				restartStart := time.Now()
				nc, err := spawnServer(o)
				if err != nil {
					controllerDone <- err
					return
				}
				*c = *nc
				if err := loadgen.WaitHealthy(context.Background(), http.DefaultClient, base, 30*time.Second); err != nil {
					controllerDone <- err
					return
				}
				chaos.RestartMillis = append(chaos.RestartMillis, time.Since(restartStart).Milliseconds())
				fmt.Fprintf(os.Stderr, "   recovered in %dms\n", chaos.RestartMillis[len(chaos.RestartMillis)-1])
			}
			controllerDone <- nil
		}()

		res := r.RunLoad(ctx, o.duration)
		if err := <-controllerDone; err != nil {
			return fmt.Errorf("chaos controller: %w", err)
		}
		chaos.Load = *res
		chaos.SubscriberCount = o.subscribers

		// Online oracle: replay the whole recovered log through SSE.
		st, err := loadgen.FetchStats(ctx, http.DefaultClient, base)
		if err != nil {
			return err
		}
		if st.NextOffset > 1 {
			facts, err := loadgen.VerifyReplay(ctx, http.DefaultClient, base, st.NextOffset-1, 5*time.Minute)
			if err != nil {
				return fmt.Errorf("verification replay: %w", err)
			}
			chaos.Replay = facts
		}
		r.StopSubscribers()
		chaos.Subscribers = r.SubscriberReports()
		chaos.ExactlyOnceViolations = r.ExactlyOnceViolations()
		for _, s := range chaos.Subscribers {
			chaos.OffsetRegressions += s.OffsetRegressions
		}

		// The offline oracles need the directories quiescent.
		if err := c.stop(); err != nil {
			return err
		}
		logFacts, err := oracle.ScanLog(o.logDir)
		if err != nil {
			return err
		}
		chaos.Log = logFacts
		chaos.Durability = oracle.CheckDurability(logFacts, r.Acked.Acked(), r.Acked.Uncertain())
		graph, err := oracle.CheckGraph(o.graphDir, logFacts)
		if err != nil {
			return err
		}
		chaos.Graph = graph

		fail := func(f string, args ...any) {
			chaos.Passed = false
			chaos.Failures = append(chaos.Failures, fmt.Sprintf(f, args...))
		}
		if !logFacts.Contiguous {
			fail("recovered log is not contiguous")
		}
		if !chaos.Durability.OK() {
			fail("durability: %d acked lost, %d acked duplicated, %d uncertain duplicated",
				chaos.Durability.AckedMissing, chaos.Durability.AckedDuplicated, chaos.Durability.UncertainDuplicated)
		}
		if chaos.ExactlyOnceViolations > 0 {
			fail("%d per-stream exactly-once violations", chaos.ExactlyOnceViolations)
		}
		if chaos.Replay != nil && (!chaos.Replay.Contiguous || chaos.Replay.Duplicated > 0) {
			fail("verification replay: contiguous=%v duplicated=%d", chaos.Replay.Contiguous, chaos.Replay.Duplicated)
		}
		if !graph.Parity {
			fail("graph parity: %d triples / %d typed nodes, want %d / %d",
				graph.Triples, graph.BulletinNodes, graph.WantTriples, logFacts.Bulletins)
		}
		if !chaos.Passed {
			report.Passed = false
		}
		report.Chaos = chaos
		fmt.Fprintf(os.Stderr, "   chaos oracles: passed=%v (acked=%d lost=%d, graph parity=%v)\n",
			chaos.Passed, chaos.Durability.Acked, chaos.Durability.AckedMissing, graph.Parity)
		return nil
	})
}

func writeReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
