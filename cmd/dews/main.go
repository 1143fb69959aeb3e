// Command dews runs the full IoT-based drought early warning simulation:
// climate → heterogeneous WSN → semantic middleware (mediation, ontology,
// CEP, IK fusion) → forecast verification → dissemination. It prints the
// EXP-C1 skill table, pipeline accounting, and sample bulletins, and can
// optionally keep serving afterwards: -serve mounts the streaming
// subscription gateway (SSE /subscribe, /publish, /v1/queue ack queues,
// /stats, /healthz — see API.md) together with the semantic-web channel
// (/semweb/*, plus legacy /bulletins /sparql /health).
//
// Usage:
//
//	dews [-seed N] [-years N] [-train N] [-lead N] [-districts a,b,c]
//	     [-nodes N] [-fetch-parallel N] [-serve :8080]
//	     [-log-dir DIR] [-log-segment-bytes N] [-log-retain 720h]
//	     [-graph-dir DIR]
//	     [-pprof] [-pprof-mutex N] [-pprof-block N]
//
// With -log-dir the broker writes every published message through a
// durable segmented event log: restarts recover retained topics and the
// offset sequence, and SSE subscribers resume by offset (Last-Event-ID
// or ?from=).
//
// With -graph-dir (which requires -log-dir) the semantic-web bulletin
// graph is durable too: every bulletin's triples are committed through a
// graph write-ahead log, so a restart reopens the full RDF graph by
// replaying that log, then repairs it against the event log, instead of
// starting empty.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/dews"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dews:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dews", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 2015, "simulation seed")
		years      = fs.Int("years", 12, "total simulated years")
		train      = fs.Int("train", 6, "training years (climatology + calibration)")
		lead       = fs.Int("lead", 30, "forecast lead time in days")
		districts  = fs.String("districts", "", "comma-separated district slugs (default: all five)")
		nodes      = fs.Int("nodes", 4, "sensor nodes per district")
		fetchPar   = fs.Int("fetch-parallel", 0, "concurrent cloud-source downloads per ingest (0 = layer default, 1 = serial)")
		logDir     = fs.String("log-dir", "", "durable event log directory (empty = in-memory broker only)")
		logSeg     = fs.Int64("log-segment-bytes", 0, "event log segment rotation size in bytes (0 = default 8MiB)")
		logRetain  = fs.Duration("log-retain", 0, "drop sealed log segments older than this (0 = keep forever)")
		graphDir   = fs.String("graph-dir", "", "durable semantic-web graph directory, requires -log-dir (empty = in-memory graph only)")
		serve      = fs.String("serve", "", "serve the subscription gateway and semantic-web channel on this address after the run")
		pprofOn    = fs.Bool("pprof", false, "with -serve, also mount net/http/pprof profiling under /debug/pprof/")
		mutexFrac  = fs.Int("pprof-mutex", 0, "sample 1/N of mutex contention events for /debug/pprof/mutex (0 = off)")
		blockNanos = fs.Int("pprof-block", 0, "sample blocking events lasting >= N ns for /debug/pprof/block (0 = off)")
		ablation   = fs.Bool("ablation", false, "run the fusion ablation study instead of the standard table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphDir != "" && *logDir == "" {
		return fmt.Errorf("-graph-dir requires -log-dir: the durable graph is a view of the durable log")
	}
	// Contention profiling is opt-in and set before any broker work so
	// the whole run is sampled, not just the serving phase. The profiles
	// are read through -pprof's /debug/pprof/{mutex,block} endpoints.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockNanos > 0 {
		runtime.SetBlockProfileRate(*blockNanos)
	}

	cfg := dews.Config{
		Seed:             *seed,
		Years:            *years,
		TrainYears:       *train,
		LeadDays:         *lead,
		NodesPerDistrict: *nodes,
		FetchParallelism: *fetchPar,
		LogDir:           *logDir,
		LogSegmentBytes:  *logSeg,
		LogRetain:        *logRetain,
		GraphDir:         *graphDir,
	}
	if *districts != "" {
		cfg.Districts = strings.Split(*districts, ",")
	}

	if *ablation {
		rows, res, err := dews.RunFusionAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("ablation over %d recorded issues (base rate %.2f):\n\n", len(res.Issues), res.DroughtFraction)
		fmt.Print(dews.FormatAblationTable(rows))
		return nil
	}

	started := time.Now()
	system, err := dews.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer system.Close()
	fmt.Printf("DEWS simulation: seed=%d years=%d train=%d lead=%dd districts=%v\n",
		*seed, *years, *train, *lead, cfg.Districts)
	if *logDir != "" {
		fmt.Printf("event log: %s (recovered %d records from previous runs)\n",
			*logDir, system.Recovered())
	}
	if *graphDir != "" {
		gs := system.GraphStore().Stats()
		fmt.Printf("graph store: %s (recovered %d triples, %d WAL records replayed)\n",
			*graphDir, gs.Triples, gs.ReplayedRecords)
	}
	result, err := system.Run()
	if err != nil {
		return err
	}
	fmt.Printf("run completed in %v\n\n", time.Since(started).Round(time.Millisecond))

	fmt.Println("— pipeline accounting —")
	fmt.Printf("readings fetched   %d\n", result.Fetched)
	fmt.Printf("annotated          %d (%.1f%%)\n", result.Annotated,
		pct(result.Annotated, result.Fetched))
	fmt.Printf("mediation failures %d\n", result.Failed)
	fmt.Printf("CEP inferences     %d\n", result.Inferences)
	fmt.Printf("bulletins          %d\n\n", len(result.Bulletins))

	fmt.Println("— forecast verification (EXP-C1) —")
	fmt.Print(dews.FormatSkillTable(result))
	fmt.Println()

	fmt.Println("— dissemination —")
	st := result.Hub
	fmt.Printf("bulletins received by hub: %d\n", st.Received)
	for _, ch := range []string{"billboard", "sms", "ip-radio"} {
		fmt.Printf("  %-13s delivered=%-5d filtered=%-5d errors=%d\n",
			ch, st.Delivered[ch], st.Filtered[ch], st.Errors[ch])
	}
	fmt.Printf("semantic-web graph: %d bulletin records materialized (%d triples)\n",
		system.Materialized(), system.Web().TripleCount())
	fmt.Println()

	fmt.Println("— current billboard —")
	fmt.Print(system.Billboard().Display())
	fmt.Println()
	fmt.Println("— spatial DVI distribution —")
	fmt.Print(system.DVIMap().Render())

	if *serve != "" {
		mux, gw, err := system.ServeMux()
		if err != nil {
			return err
		}
		if *pprofOn {
			// Off by default: profiling endpoints expose goroutine stacks
			// and heap contents, so an operator opts in per process.
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			fmt.Printf("\npprof profiling mounted at /debug/pprof/\n")
		}
		fmt.Printf("\nserving on %s — gateway: /subscribe /publish /v1/queue /stats /healthz; semantic web: /semweb/* (also /bulletins /sparql /health)\n", *serve)
		server := &http.Server{
			Addr:              *serve,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		errCh := make(chan error, 1)
		go func() { errCh <- server.ListenAndServe() }()
		select {
		case err := <-errCh:
			return err
		case <-ctx.Done():
			// Ctrl-C: say goodbye to SSE clients, then close the listener.
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = gw.Shutdown(shutCtx)
			return server.Shutdown(shutCtx)
		}
	}
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
