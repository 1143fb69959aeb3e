// Package loadgen is the closed-loop load and chaos harness behind
// cmd/dewsload: it drives the real HTTP gateway with wsngen-style
// synthetic sensor publishers, fleets of concurrent SSE subscribers
// (live, wildcard and Last-Event-ID resumers) and a mixed SPARQL query
// stream, measuring end-to-end latency (publish → SSE delivery via
// embedded timestamps), sustained throughput and per-phase error rates.
//
// The package has two layers:
//
//   - a deterministic, seedable event stream generator (gen.go) whose
//     output is byte-identical across same-seed runs, so load runs are
//     reproducible and chaos cycles replayable;
//   - worker clients (client.go, sse.go) and log-bucketed latency
//     histograms (metrics.go) that together form the closed loop.
//
// The server it drives is the deployed assembly, dews.System behind
// its ServeMux, which cmd/dewsload re-execs as a child process so chaos
// mode can SIGKILL and restart a real process, not a goroutine. The
// chaos-equivalence oracles (no lost acked publishes, exactly-once SSE
// resume, graph triple-count parity) live in the oracle subpackage.
package loadgen

import "repro/internal/dissemination"

// BulletinTriples is how many triples one materialized bulletin
// asserts; the graph-parity oracle multiplies by it.
const BulletinTriples = dissemination.BulletinTriples
