package eventlog

import (
	"encoding/json"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go. Under the race detector sync.Pool
// drops a quarter of its Puts at random, so an allocation count there
// measures the detector, not the code.
var raceEnabled bool

func allocRecord() Record {
	return Record{
		Topic:   "obs/mangaung/Rainfall",
		Time:    time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
		Payload: json.RawMessage(`2.5`),
	}
}

// TestAppendAllocs pins Append's allocation budget: the frame is encoded
// into a pooled buffer and copied into the segment's append buffer, so a
// steady-state append allocates nothing.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l := openT(t, t.TempDir(), Config{})
	defer l.Close()
	rec := allocRecord()
	got := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("Append allocates %.0f times, budget 0", got)
	}
}

// TestAppendBatchAllocs pins AppendBatch's allocation budget for a
// 50-record batch: one frame-offset slice for the whole batch.
func TestAppendBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l := openT(t, t.TempDir(), Config{})
	defer l.Close()
	batch := make([]Record, 50)
	for i := range batch {
		batch[i] = allocRecord()
	}
	got := testing.AllocsPerRun(100, func() {
		if _, _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("AppendBatch allocates %.0f times, budget 1", got)
	}
}
