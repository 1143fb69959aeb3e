package core

import (
	"testing"
	"time"
)

// raceEnabled is set by race_test.go. Under the race detector sync.Pool
// drops a quarter of its Puts at random, so an allocation count there
// measures the detector, not the code.
var raceEnabled bool

// publishAllocs measures a steady-state call of publish on a broker with
// ten subscribers matching every message, durable when asked. Each
// mailbox holds one message and drops the oldest, so fan-out never grows
// a ring after the first call.
func publishAllocs(t *testing.T, durable bool, publish func(*Broker) error) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b := NewBroker()
	if durable {
		l := openLogT(t, t.TempDir())
		defer l.Close()
		if _, err := b.AttachLog(l); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := b.Subscribe("obs/#", 1, DropOldest); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if err := publish(b); err != nil {
			t.Fatal(err)
		}
	})
}

func allocMessage() Message {
	return Message{
		Topic:   "obs/mangaung/Rainfall",
		Time:    time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
		Payload: 2.5,
	}
}

// TestPublishAllocs pins Publish's allocation budget: nothing in memory,
// and only the shared encode cache (whose scratch holds a scalar
// payload) on a durable broker.
func TestPublishAllocs(t *testing.T) {
	m := allocMessage()
	for _, tc := range []struct {
		durable bool
		budget  float64
	}{{false, 0}, {true, 1}} {
		got := publishAllocs(t, tc.durable, func(b *Broker) error {
			_, err := b.Publish(m)
			return err
		})
		if got > tc.budget {
			t.Errorf("Publish (durable %v) allocates %.0f times, budget %.0f", tc.durable, got, tc.budget)
		}
	}
}

// TestPublishBatchAllocs pins PublishBatch's allocation budget for a
// 50-message batch: nothing in memory; on a durable broker the record
// slice and one encode cache per message.
func TestPublishBatchAllocs(t *testing.T) {
	batch := make([]Message, 50)
	for i := range batch {
		batch[i] = allocMessage()
	}
	for _, tc := range []struct {
		durable bool
		budget  float64
	}{{false, 0}, {true, 51}} {
		got := publishAllocs(t, tc.durable, func(b *Broker) error {
			_, err := b.PublishBatch(batch)
			return err
		})
		if got > tc.budget {
			t.Errorf("PublishBatch (durable %v) allocates %.0f times, budget %.0f", tc.durable, got, tc.budget)
		}
	}
}
