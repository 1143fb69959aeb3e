package gateway

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
)

// raceEnabled is set by race_test.go. Under the race detector sync.Pool
// drops a quarter of its Puts at random, so an allocation count there
// measures the detector, not the code.
var raceEnabled bool

// TestMessageFrameAllocs pins messageFrame's allocation budget once the
// message's frame is cached: every subscriber after the first gets the
// shared bytes and allocates nothing.
func TestMessageFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b := core.NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("obs/#", 1, core.DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(core.Message{
		Topic:   "obs/mangaung/Rainfall",
		Time:    time.Date(2015, 11, 20, 6, 0, 0, 0, time.UTC),
		Payload: map[string]any{"value": 1.25},
	}); err != nil {
		t.Fatal(err)
	}
	msgs := sub.Poll(1)
	if len(msgs) != 1 {
		t.Fatalf("polled %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	messageFrame(m) // the first subscriber renders and caches the frame
	got := testing.AllocsPerRun(100, func() { messageFrame(m) })
	if got > 0 {
		t.Errorf("messageFrame allocates %.0f times on a cached frame, budget 0", got)
	}
}
