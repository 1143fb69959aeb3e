// Package graphlog makes the dictionary-encoded triple store durable:
// a write-ahead log of committed mutation batches layered on the
// eventlog's segment/CRC/fsync machinery, plus periodic binary
// snapshots of the graph's frozen dictionary and sorted index runs.
//
// Reopening a store costs O(snapshot + WAL tail): the newest snapshot
// is loaded by adopting its pre-sorted runs directly (no re-parsing,
// no re-sorting, no re-interning hash churn beyond rebuilding the
// lookup map), then the WAL records past the snapshot's covered offset
// are replayed. A background checkpointer writes a fresh snapshot and
// truncates redundant WAL segments once the tail grows past a quarter
// of the graph.
//
// Crash recovery is the ordinary open path — a clean Close does not
// checkpoint or do anything else a crash would skip — so "recovered
// after a crash" and "never crashed" are the same code path and the
// same resulting graph, modulo the last unsynced fsync window.
package graphlog
