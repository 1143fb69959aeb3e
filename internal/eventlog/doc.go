// Package eventlog is an append-only, segment-file event log: the
// durability substrate under the application abstraction layer's broker.
// Every record is framed with a length and a CRC so a torn tail (crash
// mid-write) is detected and truncated on reopen; records are grouped
// into size-rotated segment files named by their base offset; fsyncs are
// batched on a timer so appends never wait on the disk; and a compaction
// goroutine drops whole expired segments (by age or total bytes) without
// blocking appends. Offsets are assigned densely from 1 and never reused,
// so they double as resume cursors for streaming consumers (the gateway's
// SSE Last-Event-ID rides on them).
//
// Records use one on-disk format (see codec.go): every segment starts
// with a magic header and holds compact binary record bodies, encoded
// into a pooled buffer and decoded without reflection. A segment without
// that header makes Open fail and is left as found.
package eventlog
