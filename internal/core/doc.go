// Package core implements the paper's primary contribution: the
// ontology-based semantic middleware, structured exactly as Figure 3's
// three-tier architecture:
//
//   - the application abstraction layer (broker.go, topictree.go,
//     qos.go, dispatch.go): a topic-based publish/subscribe message
//     fabric — "a high level of software abstraction that allows
//     communication among the applications and the semantic
//     middleware". Matching goes through a segment topic trie, so
//     publish cost scales with topic depth, not subscription count.
//     Subscribers choose their QoS: bounded Subscriptions, polled or
//     waited on through Ready (at-most-once, drop accounted),
//     AckSubscriptions (at-least-once
//     fetch/ack/redeliver, the SMS-channel tier), or push-mode handler
//     subscriptions drained by a worker-pool dispatcher. The broker is
//     reachable over the network through internal/gateway;
//
//   - the ontology segment layer (segment.go): the unified ontology
//     with its reasoner, the SPARQL query engine, the semantic
//     annotator, the CEP inference engine (sharded per district) and
//     the semantic service description registry;
//
//   - the interface protocol layer (protocol.go): the adapter that
//     "liaise[s] with the storage database in the cloud for downloading
//     the semi-processed sensory reading", fetching all sources
//     concurrently with a deterministic sorted-name merge.
//
// middleware.go wires the three tiers into one facade whose Ingest is a
// staged concurrent pipeline: parallel fetch → batch mediation → batch
// publish → per-district CEP worker shards (see ARCHITECTURE.md).
package core
