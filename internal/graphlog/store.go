package graphlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
	// checkpointFraction triggers a checkpoint once the WAL tail holds
	// more than this fraction of the graph's triples.
	checkpointFraction = 0.25
	// checkpointMinTail is an absolute floor: no checkpoint happens while
	// the tail holds fewer triples than this, however small the graph.
	checkpointMinTail = 10000

	snapSuffix = ".gsnap"
)

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("graphlog: store is closed")

// Config configures a Store.
type Config struct {
	// Dir is the store directory (required; created if missing).
	// Snapshots live at Dir/*.gsnap, the WAL under Dir/wal/.
	Dir string
	// SegmentBytes and FsyncInterval tune the WAL's eventlog (defaults:
	// 8MiB segments, 25ms batched fsync).
	SegmentBytes  int64
	FsyncInterval time.Duration
	// CheckpointInterval is how often the background checkpointer polls
	// the tail-size trigger (default 15s; negative disables background
	// checkpointing — Checkpoint can still be called manually).
	CheckpointInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 15 * time.Second
	}
}

// Stats is a point-in-time summary of the persistent store, surfaced by
// the gateway's /stats.
type Stats struct {
	Triples   int `json:"triples"`
	DictTerms int `json:"dict_terms"`
	// BaseRun/MidRun/DeltaRun are the per-level SPO run lengths of the
	// in-memory graph (base is what a snapshot would serialize).
	BaseRun  int `json:"base_run"`
	MidRun   int `json:"mid_run"`
	DeltaRun int `json:"delta_run"`
	// SnapshotOffset is the WAL offset covered by the newest snapshot;
	// WALTailRecords/Triples measure the replay debt beyond it.
	SnapshotOffset uint64 `json:"snapshot_offset"`
	WALTailRecords uint64 `json:"wal_tail_records"`
	WALTailTriples uint64 `json:"wal_tail_triples"`
	WALSegments    int    `json:"wal_segments"`
	WALBytes       int64  `json:"wal_bytes"`
	// Appended counts WAL records written by this process.
	Appended uint64 `json:"appended"`
	// Checkpoint accounting. LastCheckpointAgeSecs is -1 before the
	// first checkpoint of this process.
	Checkpoints           uint64  `json:"checkpoints"`
	CheckpointFailures    uint64  `json:"checkpoint_failures"`
	LastCheckpointAgeSecs float64 `json:"last_checkpoint_age_secs"`
	LastCheckpointMicros  int64   `json:"last_checkpoint_micros"`
	// Recovery accounting from Open: whether a snapshot was loaded and
	// how much WAL tail was replayed on top of it.
	SnapshotLoaded   bool `json:"snapshot_loaded"`
	ReplayedRecords  int  `json:"replayed_records"`
	ReplayedTriples  int  `json:"replayed_triples"`
	SnapshotsSkipped int  `json:"snapshots_skipped"`
}

// Store is a persistent rdf.Graph: a write-ahead log of committed
// mutation batches plus periodic binary snapshots, so reopening costs
// O(snapshot + WAL tail) instead of re-ingesting every triple.
//
// All mutations must go through the store (AddAll, Add, Remove); reads
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
	cfg Config

	mu         sync.Mutex
	g          *rdf.Graph
	wal        *eventlog.Log
	lastTermID rdf.ID // highest term ID already captured by a WAL record or snapshot
	encBuf     []byte
	closed     bool

	// Stats state, guarded by mu.
	snapOffset       uint64
	tailTriples      uint64
	appended         uint64
	checkpoints      uint64
	checkpointFails  uint64
	lastCheckpoint   time.Time
	lastCheckpointD  time.Duration
	snapshotLoaded   bool
	replayedRecords  int
	replayedTriples  int
	snapshotsSkipped int

	// cpMu serializes checkpoints (manual and background).
	cpMu sync.Mutex

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (or creates) the store at cfg.Dir: it opens the WAL, loads
// the newest readable snapshot, replays the WAL tail beyond it, and
// starts the background checkpointer. A snapshot that fails validation
// is skipped in favor of an older one (or a full WAL replay) — losing a
// checkpoint costs reopen time, never data.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("graphlog: Config.Dir is required")
	}
	cfg.applyDefaults()
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
	st := &Store{cfg: cfg, wal: wal, stop: make(chan struct{})}
	if err := st.recover(); err != nil {
		// Recovery already failed; fold in any close error so the caller
		// sees the full teardown story instead of a silently leaked WAL.
		return nil, errors.Join(err, wal.Close())
	}
	st.lastTermID = st.g.DictLen()
	if cfg.CheckpointInterval > 0 {
		st.wg.Add(1)
		go st.checkpointLoop()
	}
	return st, nil
}

// recover builds the in-memory graph: newest valid snapshot, then WAL
// tail replay.
func (st *Store) recover() error {
	snaps, err := st.snapshotPaths()
	if err != nil {
		return err
	}
	from := uint64(1)
	// Newest first; fall back on validation failure.
	var loadErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		g, info, err := ReadSnapshotFile(snaps[i])
		if err != nil {
			st.snapshotsSkipped++
			if loadErr == nil {
				loadErr = err
			}
			continue
		}
		st.g, st.snapshotLoaded = g, true
		st.snapOffset = info.WALOffset
		from = info.WALOffset
		break
	}
	if st.g == nil {
		st.g = rdf.NewGraph()
	}
	// Replay must start at or after the WAL's first surviving record;
	// starting before it means records were truncated on the promise of a
	// snapshot that is now unreadable (or missing). Refuse to open rather
	// than silently serve a partial graph.
	if oldest := st.wal.OldestOffset(); from < oldest {
		if loadErr != nil {
			return fmt.Errorf("graphlog: replay needs WAL offset %d but log starts at %d (newest snapshot unreadable: %v)",
				from, oldest, loadErr)
		}
		return fmt.Errorf("graphlog: snapshot covers WAL up to %d but log starts at %d", from, oldest)
	}
	if next := st.wal.NextOffset(); from > next {
		return fmt.Errorf("graphlog: snapshot claims WAL offset %d beyond log end %d", from, next)
	}
	_, err = st.wal.Scan(from, func(rec eventlog.Record) error {
		b, err := decodeWALBatch(rec.Payload)
		if err != nil {
			return fmt.Errorf("WAL record %d: %w", rec.Offset, err)
		}
		return st.apply(rec.Offset, b)
	})
	if err != nil {
		return fmt.Errorf("graphlog: replay: %w", err)
	}
	return nil
}

// apply replays one decoded WAL batch onto the graph.
func (st *Store) apply(off uint64, b *walBatch) error {
	if len(b.terms) > 0 {
		if err := st.g.RestoreTerms(b.firstID, b.terms); err != nil {
			return fmt.Errorf("WAL record %d: %w", off, err)
		}
	}
	if len(b.add) > 0 {
		if _, err := st.g.AddAllIDs(b.add); err != nil {
			return fmt.Errorf("WAL record %d: %w", off, err)
		}
	}
	for _, it := range b.del {
		st.g.RemoveID(it)
	}
	st.replayedRecords++
	st.replayedTriples += len(b.add) + len(b.del)
	st.tailTriples += uint64(len(b.add) + len(b.del))
	return nil
}

// Graph returns the underlying graph for reads (queries, snapshots,
// serialization). Mutating it directly bypasses the WAL and breaks
// crash recovery — use the store's mutation methods.
func (st *Store) Graph() *rdf.Graph { return st.g }

// AddAll validates, interns and durably adds a batch of triples.
// Like rdf.Graph.AddAll it applies the valid prefix and returns the
// first validation error; a WAL write error means the batch (or a
// suffix of it, for bulk loads beyond the chunking limit) was not
// applied.
func (st *Store) AddAll(ts ...rdf.Triple) error {
	its, ferr := st.g.InternTriples(ts)
	if len(its) == 0 {
		return ferr
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	for len(its) > 0 {
		chunk := its
		if len(chunk) > walBatchTriples {
			chunk = chunk[:walBatchTriples]
		}
		its = its[len(chunk):]
		// Skip triples already present so re-asserting facts (reasoners,
		// idempotent publishers) doesn't grow the WAL.
		fresh := make([]rdf.IDTriple, 0, len(chunk))
		for _, it := range chunk {
			if !st.g.HasID(it) {
				fresh = append(fresh, it)
			}
		}
		if err := st.commitLocked(fresh, nil); err != nil {
			return err
		}
	}
	return ferr
}

// Add durably adds a single triple.
func (st *Store) Add(t rdf.Triple) error { return st.AddAll(t) }

// Remove durably removes a triple, reporting whether it was present.
func (st *Store) Remove(t rdf.Triple) (bool, error) {
	it, ok := st.g.LookupIDTriple(t)
	if !ok {
		return false, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false, ErrClosed
	}
	if !st.g.HasID(it) {
		return false, nil
	}
	if err := st.commitLocked(nil, []rdf.IDTriple{it}); err != nil {
		return false, err
	}
	return true, nil
}

// commitLocked writes one WAL record for the mutation and applies it to
// the graph. Caller holds st.mu. The dict delta is every term interned
// since the last commit — interning is concurrent, so the delta can
// include terms of batches still waiting on the lock; replay tolerates
// the overlap (RestoreTerms verifies instead of re-appending).
func (st *Store) commitLocked(add, del []rdf.IDTriple) error {
	if len(add) == 0 && len(del) == 0 {
		return nil
	}
	b := walBatch{firstID: st.lastTermID + 1, add: add, del: del}
	if cur := st.g.DictLen(); cur > st.lastTermID {
		b.terms = st.g.DictRange(st.lastTermID)
		st.lastTermID = cur
	}
	st.encBuf = appendWALBatch(st.encBuf[:0], &b)
	// WAL order must equal apply order: the append happens under st.mu by
	// design, or two racing commits could land in the log in the opposite
	// order of their graph application and replay would diverge.
	//dewsvet:lockhold-ok WAL order must equal apply order; the append stays under st.mu by design
	if _, err := st.wal.Append(eventlog.Record{
		Topic:   walTopic,
		Time:    time.Now().UTC(),
		Payload: st.encBuf,
	}); err != nil {
		// The record did not land: roll back the delta cursor so the
		// terms ride along with the next successful commit.
		if b.terms != nil {
			st.lastTermID = b.firstID - 1
		}
		return fmt.Errorf("graphlog: WAL append: %w", err)
	}
	if len(add) > 0 {
		if _, err := st.g.AddAllIDs(add); err != nil {
			return err
		}
	}
	for _, it := range del {
		st.g.RemoveID(it)
	}
	st.appended++
	st.tailTriples += uint64(len(add) + len(del))
	return nil
}

// Sync forces the WAL to disk, upgrading the batched-fsync durability
// to "this commit is on stable storage now".
func (st *Store) Sync() error { return st.wal.Sync() }

// Checkpoint writes a snapshot of the current graph and truncates the
// WAL segments it makes redundant. Safe to call concurrently with
// writes; concurrent checkpoints serialize.
func (st *Store) Checkpoint() error {
	st.cpMu.Lock()
	defer st.cpMu.Unlock()

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	snap := st.g.Snapshot()
	nextOff := st.wal.NextOffset()
	bseq := st.g.BlankNodeSeq()
	covered := st.tailTriples
	prevOff := st.snapOffset
	st.mu.Unlock()
	if nextOff == prevOff {
		return nil // nothing new since the last snapshot
	}

	start := time.Now()
	path := filepath.Join(st.cfg.Dir, fmt.Sprintf("%020d%s", nextOff, snapSuffix))
	// The slow file work below runs under cpMu alone, which serializes
	// checkpoints only; the write path takes st.mu and never cpMu, so
	// commits flow freely while the snapshot streams out.
	//dewsvet:lockhold-ok cpMu serializes checkpoints only; the write path never takes it
	err := WriteSnapshotFile(path, snap, nextOff, bseq)
	if err == nil {
		err = st.dropSnapshotsBelow(nextOff) //dewsvet:lockhold-ok cpMu serializes checkpoints only; writers never take it
	}
	if err == nil {
		// Seal the active segment so TruncateBefore can drop everything
		// the snapshot covers; records appended meanwhile live in later
		// segments and survive.
		//dewsvet:lockhold-ok cpMu serializes checkpoints only; writers never take it
		if err = st.wal.Rotate(); err == nil {
			_, err = st.wal.TruncateBefore(nextOff) //dewsvet:lockhold-ok cpMu serializes checkpoints only; writers never take it
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.checkpointFails++
		return fmt.Errorf("graphlog: checkpoint: %w", err)
	}
	st.snapOffset = nextOff
	st.tailTriples -= covered
	st.checkpoints++
	st.lastCheckpoint = time.Now()
	st.lastCheckpointD = time.Since(start)
	return nil
}

// dropSnapshotsBelow removes snapshot files older than the one covering
// keep. Removal failures are ignored: a stale snapshot wastes disk but
// is skipped at recovery in favor of the newer one.
func (st *Store) dropSnapshotsBelow(keep uint64) error {
	snaps, err := st.snapshotPaths()
	if err != nil {
		return err
	}
	for _, p := range snaps {
		base := strings.TrimSuffix(filepath.Base(p), snapSuffix)
		if off, err := strconv.ParseUint(base, 10, 64); err == nil && off < keep {
			os.Remove(p)
		}
	}
	return nil
}

// snapshotPaths returns the snapshot files sorted oldest to newest (the
// filename is the zero-padded covered WAL offset).
func (st *Store) snapshotPaths() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(st.cfg.Dir, "*"+snapSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// checkpointLoop polls the tail-size trigger.
func (st *Store) checkpointLoop() {
	defer st.wg.Done()
	tick := time.NewTicker(st.cfg.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-tick.C:
			if st.shouldCheckpoint() {
				st.Checkpoint() // failure is counted in stats and retried next tick
			}
		}
	}
}

// shouldCheckpoint applies the tail-fraction trigger.
func (st *Store) shouldCheckpoint() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	tail := st.tailTriples
	if tail < checkpointMinTail {
		return false
	}
	return float64(tail) >= checkpointFraction*float64(st.g.Len())
}

// Stats returns a point-in-time summary.
func (st *Store) Stats() Stats {
	wal := st.wal.Stats()
	snap := st.g.Snapshot()
	base, mid, delta := snap.LevelLens()
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Triples:            snap.Len(),
		DictTerms:          int(st.g.DictLen()),
		BaseRun:            base,
		MidRun:             mid,
		DeltaRun:           delta,
		SnapshotOffset:     st.snapOffset,
		WALTailTriples:     st.tailTriples,
		WALSegments:        wal.Segments,
		WALBytes:           wal.Bytes,
		Appended:           st.appended,
		Checkpoints:        st.checkpoints,
		CheckpointFailures: st.checkpointFails,
		SnapshotLoaded:     st.snapshotLoaded,
		ReplayedRecords:    st.replayedRecords,
		ReplayedTriples:    st.replayedTriples,
		SnapshotsSkipped:   st.snapshotsSkipped,
	}
	// Offsets start at 1, so with no snapshot the whole log is tail.
	snapBase := st.snapOffset
	if snapBase < 1 {
		snapBase = 1
	}
	if wal.NextOffset > snapBase {
		s.WALTailRecords = wal.NextOffset - snapBase
	}
	s.LastCheckpointAgeSecs = -1
	if !st.lastCheckpoint.IsZero() {
		s.LastCheckpointAgeSecs = time.Since(st.lastCheckpoint).Seconds()
	}
	s.LastCheckpointMicros = st.lastCheckpointD.Microseconds()
	return s
}

// Close stops the checkpointer and closes the WAL (flushing buffered
// appends). It does not checkpoint: the clean-shutdown path and the
// crash path are deliberately identical, so recovery is exercised on
// every reopen rather than only after crashes.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	close(st.stop)
	st.wg.Wait()
	// A checkpoint in flight still holds cpMu; let it finish against the
	// closed WAL (its truncate may fail harmlessly).
	return st.wal.Close()
}
