// Package gateway exposes the middleware's application abstraction
// layer (core.Broker) over HTTP, so heterogeneous remote clients —
// dashboards, mobile apps, SMS bridges — can publish and subscribe to
// the drought early-warning streams without linking the Go middleware.
//
// Endpoints (see API.md at the repo root for full request/response
// examples):
//
//	GET  /subscribe?pattern=...   SSE stream over a bounded broker
//	                              subscription: wildcard patterns,
//	                              retained replay, QoS drop accounting
//	                              and slow-consumer eviction.
//	POST /publish                 Publish one envelope or a JSON array
//	                              of envelopes as one broker batch.
//	POST /v1/queue                Create an at-least-once ack queue.
//	GET  /v1/queue/{id}/fetch     Move deliveries in-flight.
//	POST /v1/queue/{id}/ack       Acknowledge by sequence number.
//	POST /v1/queue/{id}/redeliver Return in-flight work to the queue.
//	GET  /stats                   Broker/dispatcher/gateway counters.
//	GET  /healthz                 Liveness probe.
//
// The gateway deliberately adds no delivery semantics of its own: an
// SSE client is a plain bounded Subscription (at-most-once, drop
// accounted), an ack queue is an AckSubscription (at-least-once), and
// backpressure is whatever the broker already does. Streams are woken
// by the broker — the mailbox's Ready signal, or the commit signal for
// log-backed resume streams — never by a timer. Slow SSE consumers
// are evicted once their subscription's drop counter crosses the
// configured limit; their losses stay visible in /stats because the
// broker keeps drop totals of removed subscriptions.
package gateway
