package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventlog"
)

// wakePublishers starts nPub publishers that together publish exactly
// nPub*perPub messages on wake/<p>: even publishers one at a time, odd
// ones in batches of 7, so both signalling paths race each other.
func wakePublishers(t *testing.T, b *Broker, nPub, perPub int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < nPub; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			topic := fmt.Sprintf("wake/%d", p)
			for sent := 0; sent < perPub; {
				n := 1
				if p%2 == 1 {
					n = min(7, perPub-sent)
				}
				msgs := make([]Message, n)
				for i := range msgs {
					msgs[i] = Message{Topic: topic, Payload: sent + i}
				}
				var err error
				if n == 1 {
					_, err = b.Publish(msgs[0])
				} else {
					_, err = b.PublishBatch(msgs)
				}
				if err != nil {
					t.Error(err)
					return
				}
				sent += n
			}
		}(p)
	}
	return &wg
}

// TestReadyNoLostWakeup: a consumer that blocks on Ready() and nothing
// else — no ticker, no timeout in its loop — consumes every message
// concurrent single and batch publishers offer. A lost wakeup would
// leave it parked with messages queued; the test's only timer is the
// failure deadline.
func TestReadyNoLostWakeup(t *testing.T) {
	const nPub, perPub = 8, 3000
	b := NewBroker()
	// Capacity covers the whole run, so nothing is dropped and the
	// consumed count must reach the published count exactly.
	sub, err := b.Subscribe("wake/#", nPub*perPub, DropNewest)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	got := 0
	go func() {
		defer close(done)
		for got < nPub*perPub {
			<-sub.Ready()
			got += len(sub.Poll(0))
		}
	}()
	wakePublishers(t, b, nPub, perPub).Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer parked on Ready() with %d of %d consumed and %d queued", sub.Delivered()-sub.Pending(), nPub*perPub, sub.Pending())
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d with a mailbox sized for the run", sub.Dropped())
	}
}

// TestReadyOneTokenPerBatch: a batch landing in an empty mailbox leaves
// exactly one token, after the whole batch is queued; a mailbox nobody
// waits on keeps that one token however much is published.
func TestReadyOneTokenPerBatch(t *testing.T) {
	b := NewBroker()
	sub, err := b.Subscribe("wake/#", 256, DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]Message, 50)
	for i := range msgs {
		msgs[i] = Message{Topic: "wake/a", Payload: i}
	}
	for round := 0; round < 3; round++ {
		if _, err := b.PublishBatch(msgs); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-sub.Ready():
	default:
		t.Fatal("no token after a batch")
	}
	if n := len(sub.Poll(0)); n != 150 {
		t.Fatalf("polled %d after the token, want all 150", n)
	}
	select {
	case <-sub.Ready():
		t.Fatal("second token: one mailbox, one wake")
	default:
	}
}

// TestReadyAfterRetainedReplay: a retained replay at subscribe time
// counts as a wake, so a consumer that only ever waits on Ready() sees
// the replay without a live publish.
func TestReadyAfterRetainedReplay(t *testing.T) {
	b := NewBroker()
	if _, err := b.Publish(Message{Topic: "wake/a", Payload: 1}); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("wake/#", 4, DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Ready():
	default:
		t.Fatal("no token after the retained replay")
	}
	if n := len(sub.Poll(0)); n != 1 {
		t.Fatalf("polled %d retained messages, want 1", n)
	}
}

// TestCommitSignalNoLostWakeup is TestReadyNoLostWakeup for the log
// tail: a tailer that parks on CommitSignal() alone replays every record
// concurrent publishers commit.
func TestCommitSignalNoLostWakeup(t *testing.T) {
	const nPub, perPub = 4, 1500
	l, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b := NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var got atomic.Int64
	go func() {
		cursor := uint64(1)
		for got.Load() < nPub*perPub {
			commit := b.CommitSignal()
			next, err := b.ReplayFrom(cursor, "wake/#", func(Message) error { got.Add(1); return nil })
			if err != nil {
				done <- err
				return
			}
			if cursor = next; got.Load() < nPub*perPub {
				<-commit
			}
		}
		done <- nil
	}()
	wakePublishers(t, b, nPub, perPub).Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("tailer parked on CommitSignal() with %d of %d replayed, log at %d", got.Load(), nPub*perPub, b.NextOffset())
	}
}
