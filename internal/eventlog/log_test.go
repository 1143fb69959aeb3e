package eventlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, cfg Config) *Log {
	t.Helper()
	cfg.Dir = dir
	l, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int, start int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := start + i
		off, err := l.Append(Record{
			Topic:   fmt.Sprintf("obs/d%d/Rainfall", k%3),
			Time:    time.Date(2015, 1, 1, 0, 0, k, 0, time.UTC),
			Payload: json.RawMessage(fmt.Sprintf(`{"value": %d}`, k)),
			Headers: map[string]string{"k": fmt.Sprint(k)},
		})
		if err != nil {
			t.Fatalf("Append %d: %v", k, err)
		}
		if want := uint64(k + 1); off != want {
			t.Fatalf("Append %d: offset %d, want %d", k, off, want)
		}
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	l := openT(t, t.TempDir(), Config{})
	defer l.Close()
	appendN(t, l, 10, 0)

	recs, next, err := l.Read(0, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(recs) != 10 || next != 11 {
		t.Fatalf("Read: %d records next %d, want 10 next 11", len(recs), next)
	}
	for i, rec := range recs {
		if rec.Offset != uint64(i+1) {
			t.Errorf("record %d: offset %d", i, rec.Offset)
		}
		if want := fmt.Sprintf("obs/d%d/Rainfall", i%3); rec.Topic != want {
			t.Errorf("record %d: topic %q, want %q", i, rec.Topic, want)
		}
		if rec.Headers["k"] != fmt.Sprint(i) {
			t.Errorf("record %d: headers %v", i, rec.Headers)
		}
		var body struct{ Value int }
		if err := json.Unmarshal(rec.Payload, &body); err != nil || body.Value != i {
			t.Errorf("record %d: payload %s", i, rec.Payload)
		}
	}

	// Partial reads: from an interior offset, and with a max.
	recs, next, err = l.Read(7, 0)
	if err != nil || len(recs) != 4 || recs[0].Offset != 7 {
		t.Fatalf("Read(7): %d records first %v err %v", len(recs), recs, err)
	}
	recs, next, err = l.Read(2, 3)
	if err != nil || len(recs) != 3 || recs[0].Offset != 2 || next != 5 {
		t.Fatalf("Read(2,3): %d records next %d err %v", len(recs), next, err)
	}
}

func TestRotationAndReopenContinuity(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Config{SegmentBytes: 512})
	appendN(t, l, 40, 0)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation into >= 3 segments, got %d", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l = openT(t, dir, Config{SegmentBytes: 512})
	defer l.Close()
	if got := l.NextOffset(); got != 41 {
		t.Fatalf("NextOffset after reopen: %d, want 41", got)
	}
	appendN(t, l, 5, 40)
	recs, _, err := l.Read(0, 0)
	if err != nil || len(recs) != 45 {
		t.Fatalf("Read after reopen: %d records, err %v", len(recs), err)
	}
	for i, rec := range recs {
		if rec.Offset != uint64(i+1) {
			t.Fatalf("record %d: offset %d — sequence broken across reopen", i, rec.Offset)
		}
	}
}

// lastSegment returns the path of the highest-offset segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestTornWriteRecovery is the crash-recovery case: a record torn
// mid-write (power loss) must be truncated away on reopen, keeping every
// complete record and the offset sequence.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Config{})
	appendN(t, l, 20, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the tail: chop a few bytes off the last record's body.
	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, Config{})
	defer l.Close()
	if got := l.NextOffset(); got != 20 {
		t.Fatalf("NextOffset after torn-write recovery: %d, want 20 (record 20 torn)", got)
	}
	recs, _, err := l.Read(0, 0)
	if err != nil {
		t.Fatalf("Read after recovery: %v", err)
	}
	if len(recs) != 19 {
		t.Fatalf("recovered %d records, want 19", len(recs))
	}
	for i, rec := range recs {
		if rec.Offset != uint64(i+1) || rec.Headers["k"] != fmt.Sprint(i) {
			t.Fatalf("recovered record %d corrupt: %+v", i, rec)
		}
	}
	// The log must accept appends again, reusing the torn record's offset.
	off, err := l.Append(Record{Topic: "obs/x/Rainfall", Time: time.Now()})
	if err != nil || off != 20 {
		t.Fatalf("Append after recovery: offset %d err %v, want 20", off, err)
	}
}

// TestCorruptTailRecovery flips a byte inside the last record: the CRC
// must reject it and recovery truncates to the previous record.
func TestCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Config{})
	appendN(t, l, 5, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, Config{})
	defer l.Close()
	recs, _, err := l.Read(0, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("after bit-flip: %d records err %v, want 4", len(recs), err)
	}
	if got := l.NextOffset(); got != 5 {
		t.Fatalf("NextOffset: %d, want 5", got)
	}
}

// TestShortTailRewrite is the crash between creating a segment and its
// header reaching disk: a tail of 0-7 bytes holds no record, so Open
// rewrites it in place as an empty segment, appends continue at the
// right offset, and a second reopen replays every record.
func TestShortTailRewrite(t *testing.T) {
	for size := 0; size < segHeaderLen; size++ {
		t.Run(fmt.Sprintf("%d_bytes", size), func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Config{})
			appendN(t, l, 10, 0)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tail := filepath.Join(dir, fmt.Sprintf("%020d%s", 11, segSuffix))
			if err := os.WriteFile(tail, segMagicV2[:size], 0o644); err != nil {
				t.Fatal(err)
			}

			l = openT(t, dir, Config{})
			if got := l.NextOffset(); got != 11 {
				t.Fatalf("NextOffset over a %d-byte tail: %d, want 11", size, got)
			}
			appendN(t, l, 3, 10)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := lastSegment(t, dir); got != tail {
				t.Fatalf("appends went to %s, want the rewritten tail %s", got, tail)
			}

			l = openT(t, dir, Config{})
			defer l.Close()
			recs, next, err := l.Read(0, 0)
			if err != nil || len(recs) != 13 || next != 14 {
				t.Fatalf("second reopen: %d records next %d err %v, want 13 next 14", len(recs), next, err)
			}
			for i, rec := range recs {
				if rec.Offset != uint64(i+1) || rec.Headers["k"] != fmt.Sprint(i) {
					t.Fatalf("record %d after reopen: %+v", i, rec)
				}
			}
		})
	}
}

// writeHeaderless writes a segment file of n valid frames, offsets from
// base, without the segment header: the layout of a v1-era segment.
func writeHeaderless(t *testing.T, path string, base uint64, n int) []byte {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		start := len(buf)
		var err error
		buf, err = encodeFrame(buf, &Record{Topic: "obs/d0/Rainfall", Time: time.Unix(int64(i), 0), Payload: json.RawMessage(`{"value":1}`)})
		if err != nil {
			t.Fatal(err)
		}
		patchFrame(buf[start:], base+uint64(i))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestHeaderlessSegmentRefused: a segment holding frames but no header
// is not this format. Open fails with an error naming the file, and the
// file is neither read nor truncated, whether it is the tail or sealed.
func TestHeaderlessSegmentRefused(t *testing.T) {
	t.Run("tail", func(t *testing.T) {
		dir := t.TempDir()
		l := openT(t, dir, Config{})
		appendN(t, l, 10, 0)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%020d%s", 11, segSuffix))
		want := writeHeaderless(t, path, 11, 5)
		assertRefused(t, dir, path, want)
	})
	t.Run("sealed", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, segSuffix))
		want := writeHeaderless(t, path, 1, 5)
		next := filepath.Join(dir, fmt.Sprintf("%020d%s", 6, segSuffix))
		if err := os.WriteFile(next, segMagicV2[:], 0o644); err != nil {
			t.Fatal(err)
		}
		assertRefused(t, dir, path, want)
	})
}

func assertRefused(t *testing.T, dir, path string, want []byte) {
	t.Helper()
	l, err := Open(Config{Dir: dir})
	if err == nil {
		l.Close()
		t.Fatal("Open accepted a headerless segment")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("Open error %q does not name %s", err, path)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != string(want) {
		t.Fatalf("headerless segment changed: %d bytes, want %d", len(got), len(want))
	}
}

func TestRetentionByBytes(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Config{SegmentBytes: 512, RetainBytes: 1024})
	defer l.Close()
	appendN(t, l, 60, 0)
	dropped, err := l.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if dropped == 0 {
		t.Fatal("Compact dropped nothing despite RetainBytes pressure")
	}
	st := l.Stats()
	if st.OldestOffset == 1 {
		t.Fatal("oldest offset did not advance after compaction")
	}
	if st.NextOffset != 61 {
		t.Fatalf("NextOffset: %d, want 61", st.NextOffset)
	}
	// Reads start at the retention horizon, not the requested offset.
	recs, _, err := l.Read(0, 0)
	if err != nil || len(recs) == 0 {
		t.Fatalf("Read after compact: %d records err %v", len(recs), err)
	}
	if recs[0].Offset != st.OldestOffset {
		t.Fatalf("first readable offset %d, want oldest %d", recs[0].Offset, st.OldestOffset)
	}
	if last := recs[len(recs)-1].Offset; last != 60 {
		t.Fatalf("last readable offset %d, want 60", last)
	}
	// The active segment is never dropped: appends continue seamlessly.
	appendN(t, l, 1, 60)
}

func TestRetentionByAge(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Config{SegmentBytes: 256, RetainAge: time.Nanosecond})
	defer l.Close()
	appendN(t, l, 30, 0)
	time.Sleep(10 * time.Millisecond)
	dropped, err := l.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if dropped == 0 {
		t.Fatal("age-based compaction dropped nothing")
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("expected only the active segment to survive, have %d", st.Segments)
	}
}

// TestConcurrentAppendScanCompact exercises the locking story under the
// race detector: appends, tailing scans, and compaction sweeps at once.
func TestConcurrentAppendScanCompact(t *testing.T) {
	l := openT(t, t.TempDir(), Config{SegmentBytes: 2048, RetainBytes: 64 << 10, FsyncInterval: time.Millisecond})
	defer l.Close()
	var wg sync.WaitGroup
	const writers, perWriter = 4, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append(Record{
					Topic:   fmt.Sprintf("obs/w%d/Rainfall", w),
					Time:    time.Now(),
					Payload: json.RawMessage(`{"v":1}`),
				}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cursor := uint64(1)
		for i := 0; i < 50; i++ {
			prev := uint64(0)
			next, err := l.Scan(cursor, func(rec Record) error {
				if prev != 0 && rec.Offset <= prev {
					return fmt.Errorf("offsets not increasing: %d after %d", rec.Offset, prev)
				}
				prev = rec.Offset
				return nil
			})
			if err != nil {
				t.Errorf("Scan: %v", err)
				return
			}
			if next > cursor {
				cursor = next
			}
			if _, err := l.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := l.NextOffset(); got != writers*perWriter+1 {
		t.Fatalf("NextOffset: %d, want %d", got, writers*perWriter+1)
	}
}

// TestRotationFailureDoesNotFailAppend: a segment rotation that cannot
// create its replacement file must not fail the append (the record is
// already written and counted — an error here would desync the broker's
// offset sequence from the log) and must leave the active segment
// consistent so a later rotation retries. The failure is forced with an
// O_EXCL collision: a file pre-planted at the next segment's path.
func TestRotationFailureDoesNotFailAppend(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Config{SegmentBytes: 1}) // every append wants to rotate
	blocker := filepath.Join(dir, fmt.Sprintf("%020d%s", 2, segSuffix))
	if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	off, err := l.Append(Record{Topic: "obs/x/Rainfall", Time: time.Now()})
	if err != nil || off != 1 {
		t.Fatalf("append during blocked rotation: offset %d err %v, want 1 <nil>", off, err)
	}
	if st := l.Stats(); st.SealFailures != 1 {
		t.Fatalf("SealFailures = %d, want 1", st.SealFailures)
	}
	// The next append lands in the still-active segment and its rotation
	// (to base 3, unblocked) succeeds.
	off, err = l.Append(Record{Topic: "obs/x/Rainfall", Time: time.Now()})
	if err != nil || off != 2 {
		t.Fatalf("append after blocked rotation: offset %d err %v, want 2 <nil>", off, err)
	}
	if st := l.Stats(); st.Segments != 2 || st.NextOffset != 3 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove the planted junk (it is not a log segment) and verify a
	// clean reopen sees both records.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	l = openT(t, dir, Config{})
	defer l.Close()
	recs, _, err := l.Read(0, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("reopen after rotation failure: %d records err %v", len(recs), err)
	}
}

func TestStatsShape(t *testing.T) {
	l := openT(t, t.TempDir(), Config{FsyncInterval: time.Millisecond})
	defer l.Close()
	appendN(t, l, 3, 0)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := l.Stats()
	if st.Appended != 3 || st.NextOffset != 4 || st.OldestOffset != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Fsyncs == 0 {
		t.Fatal("explicit Sync not counted")
	}
	if st.Bytes == 0 || st.Segments != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEmptyLog(t *testing.T) {
	l := openT(t, t.TempDir(), Config{})
	defer l.Close()
	if l.NextOffset() != 1 || l.OldestOffset() != 1 {
		t.Fatalf("empty log offsets: next %d oldest %d", l.NextOffset(), l.OldestOffset())
	}
	recs, next, err := l.Read(0, 0)
	if err != nil || len(recs) != 0 || next != 1 {
		t.Fatalf("empty Read: %d records next %d err %v", len(recs), next, err)
	}
}

// TestCloseReportsTeardownErrors: when Close cannot flush or sync the
// active segment, the error it returns must also carry the segment's
// own close error (regression: the close error used to be swallowed,
// reporting the teardown as cleaner than it was).
func TestCloseReportsTeardownErrors(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Topic: "t", Time: time.Now(), Payload: []byte("x")}); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Sabotage: close the active segment underneath the log. Whichever
	// teardown step trips first (flush of still-buffered bytes, or the
	// pre-close sync), Close must join that error with its own failed
	// close of the already-closed file.
	l.mu.Lock()
	f := l.active
	l.mu.Unlock()
	if err := f.Close(); err != nil {
		t.Fatalf("sabotage close: %v", err)
	}
	err = l.Close()
	if err == nil {
		t.Fatal("Close succeeded with a closed active segment")
	}
	if got := strings.Count(err.Error(), "file already closed"); got < 2 {
		t.Fatalf("Close should report both the teardown failure and its own close error, got %q", err)
	}
}
