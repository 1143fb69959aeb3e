package eventlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Defaults for Config zero values.
const (
	defaultSegmentBytes  = 8 << 20
	defaultFsyncInterval = 25 * time.Millisecond
	// compactInterval is the retention sweep cadence.
	compactInterval = 30 * time.Second
	// maxRecordBytes bounds one framed record. The gateway already caps
	// payloads at 64KiB; this is a corruption guard, not a policy knob —
	// a frame header claiming more than this is treated as garbage.
	maxRecordBytes = 16 << 20
	// frameHeader is the per-record overhead: uint32 body length +
	// uint32 CRC of the body.
	frameHeader = 8
	segSuffix   = ".seg"
	// writeBufBytes sizes the append buffer in front of the active
	// segment: appends cost a memcpy, and the buffer drains to the OS on
	// the fsync tick or whenever a reader snapshots the log.
	writeBufBytes = 64 << 10
	// encBufMax caps the retained encode buffer; a one-off huge record
	// must not pin its footprint forever.
	encBufMax = 1 << 20
)

// castagnoli is the CRC polynomial used for record framing (same choice
// as Kafka and most storage systems: better error detection than IEEE
// and hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one durable event. Payload is raw JSON — the log stores the
// wire form, not Go types, and a reader gets those bytes back
// undecoded. On disk a record is the compact binary layout described in
// codec.go.
type Record struct {
	// Offset is the log-assigned dense sequence number (first record is
	// offset 1). On Append the field is ignored and assigned.
	Offset uint64
	// Topic is the '/'-separated subject.
	Topic string
	// Time is the event time of the payload.
	Time time.Time
	// Payload is the body as raw JSON.
	Payload json.RawMessage
	// Headers carries string metadata. Records read back by one scan
	// share one map when their headers are byte-identical on disk, so a
	// read record's map is read-only.
	Headers map[string]string
}

// Config configures a Log.
type Config struct {
	// Dir is the segment directory (required; created if missing).
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (default 8MiB).
	SegmentBytes int64
	// RetainAge drops sealed segments whose newest write is older than
	// this. Age is measured from wall-clock write time, not record event
	// time (the simulation publishes historical event times). 0 keeps
	// segments forever.
	RetainAge time.Duration
	// RetainBytes drops the oldest sealed segments while the log's total
	// size exceeds this. 0 means unlimited. The active segment is never
	// dropped.
	RetainBytes int64
	// FsyncInterval is the batched-fsync cadence (default 25ms). Appends
	// only buffer-write; the sync loop flushes dirty segments on this
	// timer, so one fsync amortizes over every append in the window.
	FsyncInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = defaultSegmentBytes
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = defaultFsyncInterval
	}
}

// Stats is a point-in-time summary, surfaced by the gateway's /stats.
type Stats struct {
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// OldestOffset is the first offset still readable (compaction moves
	// it forward); NextOffset is the offset the next append will get.
	// OldestOffset == NextOffset means the log is empty.
	OldestOffset uint64 `json:"oldest_offset"`
	NextOffset   uint64 `json:"next_offset"`
	// Appended counts records written by this process.
	Appended uint64 `json:"appended"`
	// Fsyncs counts batched syncs; the latency fields expose the cost of
	// the last one and an exponential moving average. FsyncFailures is
	// non-zero when the disk refused a flush — the affected appends stay
	// buffer-only until a retry succeeds.
	Fsyncs          uint64  `json:"fsyncs"`
	FsyncFailures   uint64  `json:"fsync_failures"`
	LastFsyncMicros int64   `json:"last_fsync_micros"`
	FsyncEWMAMicros float64 `json:"fsync_ewma_micros"`
	// SealFailures counts segment rotations that failed and were left
	// for a later append to retry (the active segment keeps growing in
	// the meantime; no data is lost).
	SealFailures     uint64 `json:"seal_failures"`
	CompactedDropped uint64 `json:"compacted_segments"`
}

// segment is one on-disk file holding records [base, base+count).
type segment struct {
	base  uint64
	path  string
	bytes int64
	count int
	// sealedAt is when the segment stopped being active (zero while
	// active); retention-by-age measures from it.
	sealedAt time.Time
}

func (s *segment) end() uint64 { return s.base + uint64(s.count) }

// Log is a durable, offset-addressed record log over segment files. All
// methods are safe for concurrent use; reads never block appends beyond
// a brief snapshot of the segment list.
type Log struct {
	cfg Config

	mu       sync.Mutex
	segments []*segment
	active   *os.File
	// w buffers appends to the active segment; it is flushed before any
	// reader snapshot and before every fsync, so readers and durability
	// always see a complete-frame prefix.
	w      *bufio.Writer
	dirty  bool
	closed bool
	// compactMu serializes retention sweeps so two concurrent Compacts
	// cannot pick overlapping drop sets.
	compactMu sync.Mutex

	appended      uint64
	fsyncs        uint64
	fsyncFailures uint64
	sealFailures  uint64
	lastFsync     time.Duration
	fsyncEWMA     float64
	compacted     uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (or creates) the log in cfg.Dir, recovering from a torn
// tail by truncating the last segment to its final complete record, and
// starts the fsync and compaction loops.
func Open(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, errors.New("eventlog: config needs a directory")
	}
	cfg.applyDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	l := &Log{cfg: cfg, stop: make(chan struct{})}
	if err := l.load(); err != nil {
		return nil, err
	}
	l.wg.Add(2)
	go l.syncLoop()
	go l.compactLoop()
	return l, nil
}

// load scans the directory, validates every segment, truncates a torn
// tail on the last one, and opens the active segment for append. A tail
// shorter than the segment header (created, but the header never reached
// disk) holds no record and is rewritten in place as an empty segment.
func (l *Log) load() error {
	names, err := filepath.Glob(filepath.Join(l.cfg.Dir, "*"+segSuffix))
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		baseStr := strings.TrimSuffix(filepath.Base(path), segSuffix)
		base, err := strconv.ParseUint(baseStr, 10, 64)
		if err != nil {
			return fmt.Errorf("eventlog: segment %s: bad name", path)
		}
		l.segments = append(l.segments, &segment{base: base, path: path})
	}
	if len(l.segments) == 0 {
		return l.startSegment(1)
	}
	for i, seg := range l.segments {
		last := i == len(l.segments)-1
		count, good, err := scanSegment(seg.path, last)
		if err != nil {
			return err
		}
		seg.count = count
		seg.bytes = good
		if info, err := os.Stat(seg.path); err == nil {
			seg.sealedAt = info.ModTime()
		}
		if i > 0 && l.segments[i-1].end() != seg.base {
			return fmt.Errorf("eventlog: offset gap between segments %s and %s",
				l.segments[i-1].path, seg.path)
		}
	}
	tail := l.segments[len(l.segments)-1]
	f, err := os.OpenFile(tail.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	// Truncate the torn tail (no-op when the segment is clean).
	if err := f.Truncate(tail.bytes); err != nil {
		return errors.Join(fmt.Errorf("eventlog: truncating torn tail of %s: %w", tail.path, err), f.Close())
	}
	if tail.bytes == 0 {
		// An empty or torn-header tail holds nothing to preserve: rewrite
		// it in place as an empty segment.
		if _, err := f.Write(segMagicV2[:]); err != nil {
			return errors.Join(fmt.Errorf("eventlog: writing header to %s: %w", tail.path, err), f.Close())
		}
		tail.bytes = segHeaderLen
		l.dirty = true
	} else if _, err := f.Seek(tail.bytes, io.SeekStart); err != nil {
		return errors.Join(fmt.Errorf("eventlog: %w", err), f.Close())
	}
	tail.sealedAt = time.Time{}
	l.active = f
	l.w = bufio.NewWriterSize(f, writeBufBytes)
	return nil
}

// scanSegment checks a segment's header and walks its frames, returning
// the record count and byte length of the valid prefix. A corrupt or
// incomplete frame is a truncation point when tail is set (crash recovery
// keeps every complete record) and a hard error otherwise: torn writes
// only ever happen at the end of the last segment. A tail shorter than
// the header is such a torn write and reports an empty prefix. A segment
// that does not start with the header is an error and is never read or
// truncated. Only frame integrity (length + CRC) is checked here — record
// bodies are not decoded, so recovery cost is a sequential read.
func scanSegment(path string, tail bool) (int, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close() //dewsvet:wralerr-ok read-only handle; a close error cannot lose data
	r := bufio.NewReaderSize(f, 64<<10)
	var (
		count  int
		good   int64 = segHeaderLen
		header [frameHeader]byte
		body   []byte
	)
	head, err := r.Peek(segHeaderLen)
	switch {
	case err != nil && err != io.EOF:
		return 0, 0, fmt.Errorf("eventlog: reading %s: %w", path, err)
	case len(head) < segHeaderLen && tail:
		return 0, 0, nil
	case len(head) < segHeaderLen:
		return 0, 0, fmt.Errorf("eventlog: segment %s corrupt at byte 0", path)
	case !bytes.Equal(head, segMagicV2[:]):
		return 0, 0, fmt.Errorf("eventlog: segment %s has no segment header (headerless v1 segments are no longer readable); left untouched", path)
	}
	_, _ = r.Discard(segHeaderLen) // cannot fail: Peek just buffered these bytes
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err == io.EOF {
				return count, good, nil
			}
			break // torn header
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > maxRecordBytes {
			break // garbage length
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			break // torn body
		}
		if crc32.Checksum(body, castagnoli) != crc {
			break // corrupt body
		}
		count++
		good += frameHeader + int64(n)
	}
	if !tail {
		return 0, 0, fmt.Errorf("eventlog: segment %s corrupt at byte %d", path, good)
	}
	return count, good, nil
}

// startSegment creates and activates an empty v2 segment whose first
// record will be base, writing the format header through the append
// buffer. Caller holds l.mu (or is single-threaded in load).
func (l *Log) startSegment(base uint64) error {
	path := filepath.Join(l.cfg.Dir, fmt.Sprintf("%020d%s", base, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644) //dewsvet:lockhold-ok cold path: segment creation happens at open and on rotation, not per append
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	l.segments = append(l.segments, &segment{base: base, path: path, bytes: segHeaderLen})
	l.active = f
	if l.w == nil {
		l.w = bufio.NewWriterSize(f, writeBufBytes)
	} else {
		l.w.Reset(f)
	}
	if _, err := l.w.Write(segMagicV2[:]); err != nil { //dewsvet:lockhold-ok header write lands in the fresh append buffer
		return fmt.Errorf("eventlog: %w", err)
	}
	l.dirty = true
	return nil
}

// flushLocked drains the append buffer to the OS. Caller holds l.mu. A
// failed flush re-marks the log dirty so the sync loop retries.
func (l *Log) flushLocked() error {
	if l.w == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil { //dewsvet:lockhold-ok the sequencer's buffered-writer handoff: draining to the OS under l.mu is the design
		l.dirty = true
		return fmt.Errorf("eventlog: flushing append buffer: %w", err)
	}
	return nil
}

// sealActive flushes, fsyncs and closes the active segment and swaps in
// a fresh one. The replacement file is created *first*: any failure
// before the swap leaves the current segment active and untouched (it
// simply keeps growing past SegmentBytes and rotation retries on the
// next append), so a transient disk error can never wedge the log or
// lose an already-written record. Caller holds l.mu.
//
//dewsvet:lockhold-ok rotation must swap files atomically under the sequencer lock; it amortizes over SegmentBytes of appends
func (l *Log) sealActive() error {
	tail := l.segments[len(l.segments)-1]
	path := filepath.Join(l.cfg.Dir, fmt.Sprintf("%020d%s", tail.end(), segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	abort := func(err error) error {
		// Best-effort cleanup of the never-written replacement file;
		// the caller's error is the one that matters.
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	if err := l.flushLocked(); err != nil {
		return abort(err)
	}
	if err := l.active.Sync(); err != nil {
		return abort(fmt.Errorf("eventlog: %w", err))
	}
	// A Close failure after a successful sync cannot lose data; swap to
	// the new segment regardless so appends continue.
	closeErr := l.active.Close()
	tail.sealedAt = time.Now()
	l.dirty = false
	l.segments = append(l.segments, &segment{base: tail.end(), path: path, bytes: segHeaderLen})
	l.active = f
	l.w.Reset(f)
	if _, err := l.w.Write(segMagicV2[:]); err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	l.dirty = true
	if closeErr != nil {
		return fmt.Errorf("eventlog: closing sealed segment: %w", closeErr)
	}
	return nil
}

// encPool recycles frame-encode buffers. Record bodies are encoded
// outside the log lock (concurrent appenders encode in parallel into
// pooled buffers), so the lock's critical section is only the
// sequencing itself: patch the offset, checksum, and hand the frame to
// the buffered writer.
var encPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// putEnc returns an encode buffer to the pool unless a huge record blew
// it past the retention cap — a one-off 20 MiB record must not pin
// 20 MiB forever.
func putEnc(bp *[]byte, buf []byte) {
	if cap(buf) <= encBufMax {
		*bp = buf[:0]
		encPool.Put(bp)
	}
}

// encodeFrame appends one [header][body] frame for rec to buf. The
// header and the body's offset field are zero placeholders, patched by
// patchFrame once the sequencer assigns the offset. Errors only on an
// oversized record.
func encodeFrame(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	var zero [frameHeader]byte
	buf = append(buf, zero[:]...)
	buf = appendRecordV2(buf, rec)
	if body := len(buf) - start - frameHeader; body > maxRecordBytes {
		return buf, fmt.Errorf("eventlog: record of %d bytes exceeds limit %d", body, maxRecordBytes)
	}
	return buf, nil
}

// patchFrame stamps the assigned offset into a pre-encoded frame and
// completes its header (length + CRC over the patched body). The offset
// occupies the first 8 body bytes (see codec.go), so sequencing a
// record costs three fixed-size writes and one checksum — this is the
// entire per-record cost inside the append lock.
func patchFrame(frame []byte, off uint64) {
	body := frame[frameHeader:]
	binary.LittleEndian.PutUint64(body[0:8], off)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
}

// appendFrameLocked sequences one pre-encoded frame: assigns the tail
// offset, patches it in, writes through the buffered writer, and
// rotates the segment when it exceeds SegmentBytes. Caller holds l.mu.
func (l *Log) appendFrameLocked(frame []byte) (uint64, error) {
	tail := l.segments[len(l.segments)-1]
	off := tail.end()
	patchFrame(frame, off)
	if _, err := l.w.Write(frame); err != nil { //dewsvet:lockhold-ok the sequencer's buffered-writer handoff: a memcpy into the append buffer, spilling only when full
		return 0, fmt.Errorf("eventlog: %w", err)
	}
	tail.count++
	tail.bytes += int64(len(frame))
	l.appended++
	l.dirty = true
	if tail.bytes >= l.cfg.SegmentBytes {
		// The record is already written and counted, so a rotation
		// failure must not fail the append — a caller (the broker)
		// treats an Append error as "record did not happen" and would
		// desync its offset sequence from the log. sealActive leaves the
		// current segment active and consistent on failure; rotation
		// retries on the next append, and the failure is visible in
		// Stats.
		if err := l.sealActive(); err != nil {
			l.sealFailures++
		}
	}
	return off, nil
}

// Append encodes the record with the v2 binary codec into a pooled
// buffer outside the lock, then takes the lock only to sequence it:
// assign the next offset, patch it into the frame, and hand the bytes
// to the buffered active segment. Concurrent appenders therefore
// serialize on the offset assignment and buffer write, not on payload
// encoding; WAL order equals offset order by construction. Durability
// arrives with the next batched fsync (or Sync/Close).
//
// TestAppendAllocs pins its allocation budget.
func (l *Log) Append(rec Record) (uint64, error) {
	bp := encPool.Get().(*[]byte)
	buf, err := encodeFrame((*bp)[:0], &rec)
	if err != nil {
		putEnc(bp, buf)
		return 0, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		putEnc(bp, buf)
		return 0, errors.New("eventlog: log is closed")
	}
	off, err := l.appendFrameLocked(buf)
	l.mu.Unlock()
	putEnc(bp, buf)
	return off, err
}

// AppendBatch appends recs as one contiguous offset run: every record
// is encoded outside the lock, then the lock is taken once to sequence
// and write all of them back to back. It returns the first assigned
// offset and how many records were appended; on error the first n
// records are durably appended (offsets first..first+n-1) and the rest
// were not. An empty batch returns (0, 0, nil).
//
// TestAppendBatchAllocs pins its allocation budget.
func (l *Log) AppendBatch(recs []Record) (first uint64, n int, err error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	bp := encPool.Get().(*[]byte)
	buf := (*bp)[:0]
	starts := make([]int, len(recs)+1)
	for i := range recs {
		starts[i] = len(buf)
		if buf, err = encodeFrame(buf, &recs[i]); err != nil {
			putEnc(bp, buf)
			return 0, 0, err
		}
	}
	starts[len(recs)] = len(buf)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		putEnc(bp, buf)
		return 0, 0, errors.New("eventlog: log is closed")
	}
	for i := range recs {
		off, werr := l.appendFrameLocked(buf[starts[i]:starts[i+1]])
		if werr != nil {
			err = werr
			break
		}
		if i == 0 {
			first = off
		}
		n++
	}
	l.mu.Unlock()
	putEnc(bp, buf)
	return first, n, err
}

// NextOffset returns the offset the next append will receive.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments[len(l.segments)-1].end()
}

// OldestOffset returns the first offset still readable; equal to
// NextOffset when the log holds no records.
func (l *Log) OldestOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldestLocked()
}

func (l *Log) oldestLocked() uint64 {
	for _, seg := range l.segments {
		if seg.count > 0 {
			return seg.base
		}
	}
	return l.segments[len(l.segments)-1].end()
}

// segView is an immutable snapshot of one segment's readable extent.
type segView struct {
	base  uint64
	path  string
	bytes int64
	count int
}

// Scan streams records with offset >= from to fn, in offset order, up to
// the log's end at call time, and returns the next offset to scan from
// (== NextOffset of the snapshot). Records older than the retention
// horizon are silently skipped: callers detect the gap by comparing from
// with OldestOffset. fn errors abort the scan and are returned as-is.
// The segment list is snapshotted under the lock but files are read
// outside it, so scanning never blocks appends; bytes beyond the
// snapshot are ignored even if the file has grown since.
func (l *Log) Scan(from uint64, fn func(Record) error) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("eventlog: log is closed")
	}
	// Readers see what the snapshot claims, so the append buffer must be
	// on disk (well, in the page cache) before the views are taken.
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	views := make([]segView, 0, len(l.segments))
	for _, seg := range l.segments {
		views = append(views, segView{base: seg.base, path: seg.path, bytes: seg.bytes, count: seg.count})
	}
	l.mu.Unlock()

	next := views[len(views)-1].base + uint64(views[len(views)-1].count)
	var dec decoder
	for _, v := range views {
		if v.count == 0 || v.base+uint64(v.count) <= from {
			continue
		}
		if err := scanView(&dec, v, from, fn); err != nil {
			return next, err
		}
	}
	return next, nil
}

// scanView reads one segment snapshot, calling fn for records >= from.
// Reads are buffered, and bodies below the cursor are skipped with
// Discard instead of copied/checksummed — a tail catch-up pays for the
// gap, not for re-decoding the whole segment.
func scanView(dec *decoder, v segView, from uint64, fn func(Record) error) error {
	f, err := os.Open(v.path)
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close() //dewsvet:wralerr-ok read-only handle; a close error cannot lose data
	r := bufio.NewReaderSize(io.LimitReader(f, v.bytes), 64<<10)
	if _, err := r.Discard(segHeaderLen); err != nil {
		return fmt.Errorf("eventlog: segment %s missing header: %w", v.path, err)
	}
	var header [frameHeader]byte
	var body []byte
	var rec Record
	for off := v.base; off < v.base+uint64(v.count); off++ {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return fmt.Errorf("eventlog: segment %s short at offset %d: %w", v.path, off, err)
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > maxRecordBytes {
			return fmt.Errorf("eventlog: segment %s corrupt frame at offset %d", v.path, off)
		}
		if off < from {
			if _, err := r.Discard(int(n)); err != nil {
				return fmt.Errorf("eventlog: segment %s short at offset %d: %w", v.path, off, err)
			}
			continue
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("eventlog: segment %s short at offset %d: %w", v.path, off, err)
		}
		if crc32.Checksum(body, castagnoli) != crc {
			return fmt.Errorf("eventlog: segment %s CRC mismatch at offset %d", v.path, off)
		}
		if err := dec.decodeRecordV2(body, &rec); err != nil {
			return fmt.Errorf("eventlog: segment %s record at offset %d: %w", v.path, off, err)
		}
		if rec.Offset != off {
			return fmt.Errorf("eventlog: segment %s offset mismatch: frame %d carries %d", v.path, off, rec.Offset)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Read collects up to max records (all when max <= 0) starting at from
// and returns them with the next offset to read from.
func (l *Log) Read(from uint64, max int) ([]Record, uint64, error) {
	var out []Record
	stop := errors.New("eventlog: read limit")
	next, err := l.Scan(from, func(rec Record) error {
		out = append(out, rec)
		if max > 0 && len(out) >= max {
			return stop
		}
		return nil
	})
	if err != nil && !errors.Is(err, stop) {
		return nil, next, err
	}
	if max > 0 && len(out) >= max {
		next = out[len(out)-1].Offset + 1
	}
	return out, next, nil
}

// Sync flushes the append buffer and forces an immediate fsync of the
// active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("eventlog: log is closed")
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	f := l.active
	l.dirty = false
	l.mu.Unlock()
	return l.timedSync(f)
}

// timedSync fsyncs f and folds the latency into the stats. A sync racing
// a rotation may hit a just-closed file; that error is ignored — seal
// already synced it. A real fsync failure re-marks the log dirty so the
// next tick retries, and is counted in Stats — data is only
// buffer-durable until a flush succeeds, and that must be visible.
func (l *Log) timedSync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	lat := time.Since(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil
		}
		l.dirty = true
		l.fsyncFailures++
		return fmt.Errorf("eventlog: fsync: %w", err)
	}
	l.fsyncs++
	l.lastFsync = lat
	micros := float64(lat.Microseconds())
	if l.fsyncEWMA == 0 {
		l.fsyncEWMA = micros
	} else {
		l.fsyncEWMA = 0.9*l.fsyncEWMA + 0.1*micros
	}
	return nil
}

// syncLoop batches fsyncs: appends mark the log dirty and this loop
// flushes at FsyncInterval, so the per-append durability cost is one
// timer check, not one disk flush.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	tick := time.NewTicker(l.cfg.FsyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
			l.mu.Lock()
			if l.closed || !l.dirty {
				l.mu.Unlock()
				continue
			}
			if err := l.flushLocked(); err != nil {
				l.fsyncFailures++
				l.mu.Unlock()
				continue
			}
			l.dirty = false
			f := l.active
			l.mu.Unlock()
			_ = l.timedSync(f)
		}
	}
}

// compactLoop periodically applies retention.
func (l *Log) compactLoop() {
	defer l.wg.Done()
	tick := time.NewTicker(compactInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
			_, _ = l.Compact()
		}
	}
}

// Rotate seals the active segment and starts a fresh one, regardless of
// size. A caller rotates before truncating so every record written so
// far lives in a sealed segment and is therefore droppable by
// TruncateBefore. Rotating an empty active
// segment is a no-op.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("eventlog: log is closed")
	}
	tail := l.segments[len(l.segments)-1]
	if tail.count == 0 {
		return nil
	}
	if err := l.sealActive(); err != nil {
		l.sealFailures++
		return err
	}
	return nil
}

// TruncateBefore drops sealed segments every record of which precedes
// offset, returning how many were removed. Unlike Compact it is
// offset-directed, not policy-directed, but shares its safety
// properties — only sealed segments are candidates, the active segment
// always survives, removal runs outside the lock, and a removal failure
// stops the sweep so the remaining segment set stays offset-contiguous.
func (l *Log) TruncateBefore(offset uint64) (int, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("eventlog: log is closed")
	}
	var drop []*segment
	for len(l.segments)-len(drop) > 1 {
		seg := l.segments[len(drop)]
		if seg.sealedAt.IsZero() || seg.end() > offset {
			break
		}
		drop = append(drop, seg)
	}
	l.mu.Unlock()
	removed := 0
	var firstErr error
	for _, seg := range drop {
		if err := os.Remove(seg.path); err != nil { //dewsvet:lockhold-ok compactMu serializes sweeps only; appenders take l.mu, never compactMu
			firstErr = fmt.Errorf("eventlog: removing %s: %w", seg.path, err)
			break
		}
		removed++
	}
	if removed > 0 {
		l.mu.Lock()
		l.segments = append(l.segments[:0], l.segments[removed:]...)
		l.compacted += uint64(removed)
		l.mu.Unlock()
	}
	return removed, firstErr
}

// Compact applies the retention policy now, returning how many segments
// were dropped. Only sealed segments are candidates; file removal runs
// outside the lock so a sweep never blocks appends. Sweeps are
// serialized (compactMu) and stop at the first removal failure so the
// on-disk segment set stays offset-contiguous — load() rejects gaps,
// and a half-removed range must not brick the next Open.
func (l *Log) Compact() (int, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("eventlog: log is closed")
	}
	var total int64
	for _, seg := range l.segments {
		total += seg.bytes
	}
	now := time.Now()
	var drop []*segment
	for len(l.segments)-len(drop) > 1 {
		seg := l.segments[len(drop)]
		expired := l.cfg.RetainAge > 0 && !seg.sealedAt.IsZero() && now.Sub(seg.sealedAt) > l.cfg.RetainAge
		oversize := l.cfg.RetainBytes > 0 && total > l.cfg.RetainBytes
		if !expired && !oversize {
			break
		}
		drop = append(drop, seg)
		total -= seg.bytes
	}
	l.mu.Unlock()
	removed := 0
	var firstErr error
	for _, seg := range drop {
		if err := os.Remove(seg.path); err != nil { //dewsvet:lockhold-ok compactMu serializes sweeps only; appenders take l.mu, never compactMu
			firstErr = fmt.Errorf("eventlog: removing %s: %w", seg.path, err)
			break
		}
		removed++
	}
	if removed > 0 {
		l.mu.Lock()
		l.segments = append(l.segments[:0], l.segments[removed:]...)
		l.compacted += uint64(removed)
		l.mu.Unlock()
	}
	return removed, firstErr
}

// Stats returns a point-in-time summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, seg := range l.segments {
		total += seg.bytes
	}
	return Stats{
		Segments:         len(l.segments),
		Bytes:            total,
		OldestOffset:     l.oldestLocked(),
		NextOffset:       l.segments[len(l.segments)-1].end(),
		Appended:         l.appended,
		Fsyncs:           l.fsyncs,
		FsyncFailures:    l.fsyncFailures,
		LastFsyncMicros:  l.lastFsync.Microseconds(),
		FsyncEWMAMicros:  l.fsyncEWMA,
		SealFailures:     l.sealFailures,
		CompactedDropped: l.compacted,
	}
}

// Close stops the background loops, fsyncs, and closes the active
// segment. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.stop)
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		l.wg.Wait()
		return errors.Join(err, l.active.Close())
	}
	l.mu.Unlock()
	l.wg.Wait()
	if err := l.active.Sync(); err != nil {
		return errors.Join(fmt.Errorf("eventlog: %w", err), l.active.Close())
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	return nil
}
