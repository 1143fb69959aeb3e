// Package graphlog makes the dictionary-encoded triple store durable:
// a write-ahead log of committed mutation batches layered on the
// eventlog's segment/CRC/fsync machinery.
//
// The WAL is the whole store. Every commit appends one record (the new
// dictionary terms plus the ID-triples added or removed), and Open
// replays the log from offset 1. Commits are deduplicated against the
// graph before they are logged, so the WAL grows with the distinct
// facts the graph holds, not with how often they are re-asserted.
//
// Crash recovery is the ordinary open path — a clean Close does nothing
// a crash would skip — so "recovered after a crash" and "never crashed"
// are the same code path and the same resulting graph, modulo the last
// unsynced fsync window.
package graphlog
