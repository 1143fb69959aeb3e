package graphlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/eventlog"
	"repro/internal/rdf"
)

const (
	// walTopic tags graph WAL records inside the eventlog frames.
	walTopic = "graph"
	// walBatchTriples chunks oversized mutation batches into multiple WAL
	// records so a bulk load never hits the eventlog's per-record size
	// cap. Atomicity (what a concurrent reader or a crash can observe) is
	// per chunk; callers that need a whole batch atomic must stay under
	// this many triples, which every runtime writer (a bulletin is six
	// triples) does by orders of magnitude.
	walBatchTriples = 8192
)

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("graphlog: store is closed")

// Config configures a Store.
type Config struct {
	// Dir is the store directory (required; created if missing). The
	// WAL lives under Dir/wal/.
	Dir string
	// SegmentBytes and FsyncInterval tune the WAL's eventlog (defaults:
	// 8MiB segments, 25ms batched fsync).
	SegmentBytes  int64
	FsyncInterval time.Duration
	// CheckpointInterval is ignored: the store writes no snapshots.
	//
	// Deprecated: only bench/restart.go still sets it; the field goes
	// with the bench/ change that stops setting it.
	CheckpointInterval time.Duration
}

// Stats is a point-in-time summary of the persistent store, surfaced by
// the gateway's /stats.
type Stats struct {
	Triples   int `json:"triples"`
	DictTerms int `json:"dict_terms"`
	// BaseRun/MidRun/DeltaRun are the per-level SPO run lengths of the
	// in-memory graph.
	BaseRun  int `json:"base_run"`
	MidRun   int `json:"mid_run"`
	DeltaRun int `json:"delta_run"`
	// WALTailRecords/Triples measure the replay debt of the next open:
	// Open replays the whole WAL.
	WALTailRecords uint64 `json:"wal_tail_records"`
	WALTailTriples uint64 `json:"wal_tail_triples"`
	WALSegments    int    `json:"wal_segments"`
	WALBytes       int64  `json:"wal_bytes"`
	// Appended counts WAL records written by this process.
	Appended uint64 `json:"appended"`
	// ReplayedRecords/Triples is what Open replayed.
	ReplayedRecords int `json:"replayed_records"`
	ReplayedTriples int `json:"replayed_triples"`
}

// Store is a persistent rdf.Graph: a write-ahead log of committed
// mutation batches, replayed in full by Open.
//
// All mutations must go through the store (AddAll, Remove); reads
// go through Graph(), which is safe for concurrent readers. The store
// serializes commits internally: a batch is encoded, appended to the
// WAL, and only then applied to the in-memory graph, all under one
// lock, so WAL order is exactly apply order and replay is
// deterministic.
//
// Durability matches the eventlog underneath: fsync is batched (25ms
// default), so a crash can lose the last few milliseconds of commits
// but never corrupts what was synced — Open truncates a torn tail and
// replays the rest, leaving the graph exactly as if the lost commits
// had never happened.
type Store struct {
	mu     sync.Mutex
	g      *rdf.Graph
	wal    *eventlog.Log
	encBuf []byte
	closed bool

	// Stats state, guarded by mu.
	tailTriples     uint64
	appended        uint64
	replayedRecords int
	replayedTriples int
}

// Open opens (or creates) the store at cfg.Dir: it opens the WAL and
// replays it from its first record.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("graphlog: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("graphlog: %w", err)
	}
	wal, err := eventlog.Open(eventlog.Config{
		Dir:           filepath.Join(cfg.Dir, "wal"),
		SegmentBytes:  cfg.SegmentBytes,
		FsyncInterval: cfg.FsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("graphlog: opening WAL: %w", err)
	}
	st := &Store{wal: wal, g: rdf.NewGraph()}
	if err := st.recover(); err != nil {
		// Recovery already failed; fold in any close error so the caller
		// sees the full teardown story instead of a silently leaked WAL.
		return nil, errors.Join(err, wal.Close())
	}
	return st, nil
}

// recover replays the whole WAL onto the empty graph.
func (st *Store) recover() error {
	// A log that no longer starts at offset 1 was truncated behind a
	// snapshot by an older build of this store. Refuse to open rather
	// than serve the tail as if it were the whole graph; deleting the
	// directory lets the owner rebuild the graph from its source.
	if oldest := st.wal.OldestOffset(); oldest > 1 {
		return fmt.Errorf("graphlog: WAL starts at offset %d, not 1: truncated behind a snapshot this store no longer reads", oldest)
	}
	_, err := st.wal.Scan(1, func(rec eventlog.Record) error {
		b, err := decodeWALBatch(rec.Payload)
		if err != nil {
			return fmt.Errorf("WAL record %d: %w", rec.Offset, err)
		}
		if err := st.apply(b); err != nil {
			return fmt.Errorf("WAL record %d: %w", rec.Offset, err)
		}
		st.replayedRecords++
		st.replayedTriples += len(b.add) + len(b.del)
		return nil
	})
	if err != nil {
		return fmt.Errorf("graphlog: replay: %w", err)
	}
	return nil
}

// apply applies one batch to the graph: a committed one, or a decoded
// WAL record on replay.
func (st *Store) apply(b *walBatch) error {
	if err := st.g.AddAll(b.add...); err != nil {
		return err
	}
	for _, t := range b.del {
		st.g.Remove(t)
	}
	st.tailTriples += uint64(len(b.add) + len(b.del))
	return nil
}

// Graph returns the underlying graph for reads (queries, snapshots,
// serialization). Mutating it directly bypasses the WAL and breaks
// crash recovery — use the store's mutation methods.
func (st *Store) Graph() *rdf.Graph { return st.g }

// AddAll validates and durably adds a batch of triples.
// Like rdf.Graph.AddAll it applies the valid prefix and returns the
// first validation error; a WAL write error means the batch (or a
// suffix of it, for bulk loads beyond the chunking limit) was not
// applied.
func (st *Store) AddAll(ts ...rdf.Triple) error {
	var ferr error
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			ferr, ts = err, ts[:i]
			break
		}
	}
	if len(ts) == 0 {
		return ferr
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	for len(ts) > 0 {
		chunk := ts[:min(len(ts), walBatchTriples)]
		ts = ts[len(chunk):]
		// Skip triples already present so re-asserting facts (reasoners,
		// idempotent publishers, the open-time repair) doesn't grow the WAL.
		fresh := make([]rdf.Triple, 0, len(chunk))
		for _, t := range chunk {
			if !st.g.Has(t) {
				fresh = append(fresh, t)
			}
		}
		if err := st.commitLocked(&walBatch{add: fresh}); err != nil {
			return err
		}
	}
	return ferr
}

// Remove durably removes a triple, reporting whether it was present.
// Removing an absent triple writes nothing, so it succeeds even on a
// closed store.
func (st *Store) Remove(t rdf.Triple) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.g.Has(t) {
		return false, nil
	}
	if st.closed {
		return false, ErrClosed
	}
	if err := st.commitLocked(&walBatch{del: []rdf.Triple{t}}); err != nil {
		return false, err
	}
	return true, nil
}

// commitLocked writes one WAL record for the batch and applies it to
// the graph. Caller holds st.mu.
func (st *Store) commitLocked(b *walBatch) error {
	if len(b.add) == 0 && len(b.del) == 0 {
		return nil
	}
	st.encBuf = appendWALBatch(st.encBuf[:0], b)
	// WAL order must equal apply order: the append happens under st.mu by
	// design, or two racing commits could land in the log in the opposite
	// order of their graph application and replay would diverge.
	//dewsvet:lockhold-ok WAL order must equal apply order; the append stays under st.mu by design
	if _, err := st.wal.Append(eventlog.Record{
		Topic:   walTopic,
		Time:    time.Now().UTC(),
		Payload: st.encBuf,
	}); err != nil {
		return fmt.Errorf("graphlog: WAL append: %w", err)
	}
	if err := st.apply(b); err != nil {
		return err
	}
	st.appended++
	return nil
}

// Sync forces the WAL to disk, upgrading the batched-fsync durability
// to "this commit is on stable storage now".
func (st *Store) Sync() error { return st.wal.Sync() }

// Stats returns a point-in-time summary.
func (st *Store) Stats() Stats {
	wal := st.wal.Stats()
	snap := st.g.Snapshot()
	base, mid, delta := snap.LevelLens()
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Triples:         snap.Len(),
		DictTerms:       int(st.g.DictLen()),
		BaseRun:         base,
		MidRun:          mid,
		DeltaRun:        delta,
		WALTailTriples:  st.tailTriples,
		WALSegments:     wal.Segments,
		WALBytes:        wal.Bytes,
		Appended:        st.appended,
		ReplayedRecords: st.replayedRecords,
		ReplayedTriples: st.replayedTriples,
	}
	// Offsets start at 1, so the log holds NextOffset-1 records.
	if wal.NextOffset > 1 {
		s.WALTailRecords = wal.NextOffset - 1
	}
	return s
}

// Close closes the WAL (flushing buffered appends). The clean-shutdown
// path and the crash path are deliberately identical, so recovery is
// exercised on every reopen rather than only after crashes.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	return st.wal.Close()
}
