package core

import (
	"testing"
)

func TestAckSubscriptionBasicFlow(t *testing.T) {
	b := NewBroker()
	sub, err := b.SubscribeAck("alert/#", 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Publish(Message{Topic: "alert/x", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	ds := sub.Fetch(2)
	if len(ds) != 2 {
		t.Fatalf("fetched %d", len(ds))
	}
	q, inflight := sub.Pending()
	if q != 1 || inflight != 2 {
		t.Fatalf("pending = %d/%d", q, inflight)
	}
	if err := sub.Ack(ds[0].Seq); err != nil {
		t.Fatal(err)
	}
	if sub.Acked() != 1 {
		t.Errorf("acked = %d", sub.Acked())
	}
	// Double-ack is an error.
	if err := sub.Ack(ds[0].Seq); err == nil {
		t.Error("double ack should fail")
	}
	// Unacked delivery returns to the head on redeliver.
	if n := sub.Redeliver(); n != 1 {
		t.Fatalf("redelivered %d", n)
	}
	again := sub.Fetch(0)
	if len(again) != 2 {
		t.Fatalf("after redeliver fetched %d", len(again))
	}
	if again[0].Seq != ds[1].Seq {
		t.Errorf("redelivered message should come first: %v", again)
	}
	// Payload integrity across the redelivery cycle.
	if again[0].Message.Payload != 1 {
		t.Errorf("payload = %v", again[0].Message.Payload)
	}
}

func TestAckSubscriptionAtLeastOnce(t *testing.T) {
	// A crashing consumer (fetch without ack) must see every message
	// again — the at-least-once guarantee.
	b := NewBroker()
	sub, _ := b.SubscribeAck("x/#", 100)
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(Message{Topic: "x/t", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	first := sub.Fetch(0) // consumer "crashes" here
	if len(first) != 5 {
		t.Fatal("fetch failed")
	}
	sub.Redeliver()
	second := sub.Fetch(0)
	if len(second) != 5 {
		t.Fatalf("replay saw %d of 5", len(second))
	}
	for i, d := range second {
		if d.Message.Payload != i {
			t.Errorf("order lost: %v", second)
		}
		if err := sub.Ack(d.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if n := sub.Redeliver(); n != 0 {
		t.Errorf("nothing should remain, redelivered %d", n)
	}
}

func TestAckSubscriptionBackpressureCountsInflight(t *testing.T) {
	b := NewBroker()
	sub, _ := b.SubscribeAck("x/#", 2)
	if _, err := b.Publish(Message{Topic: "x/t", Payload: 0}); err != nil {
		t.Fatal(err)
	}
	sub.Fetch(0) // one in flight
	if _, err := b.Publish(Message{Topic: "x/t", Payload: 1}); err != nil {
		t.Fatal(err)
	}
	// Queue(1) + inflight(1) = capacity → next drops.
	if _, err := b.Publish(Message{Topic: "x/t", Payload: 2}); err != nil {
		t.Fatal(err)
	}
	if sub.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", sub.Dropped())
	}
}

func TestAckSubscriptionRetainedReplay(t *testing.T) {
	b := NewBroker()
	if _, err := b.Publish(Message{Topic: "bulletin/mangaung", Payload: "latest"}); err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeAck("bulletin/#", 10)
	if err != nil {
		t.Fatal(err)
	}
	ds := sub.Fetch(0)
	if len(ds) != 1 || ds[0].Message.Payload != "latest" {
		t.Fatalf("retained replay = %v", ds)
	}
}

// TestAckSubscriptionRetainedDuplicateGuard drives offerRetained's three
// early exits: the subscribe/publish race can hand one message to both
// the live and the retained path, and the at-least-once tier must not
// deliver it twice, whether its first copy is still queued or already
// in flight; a full mailbox drops the retained copy and counts it.
func TestAckSubscriptionRetainedDuplicateGuard(t *testing.T) {
	live := Message{Offset: 7, Topic: "bulletin/mangaung", Payload: "live"}
	cases := []struct {
		name     string
		capacity int
		fetch    bool // move the live copy in flight before the retained offer
		retained Message
		dropped  int
	}{
		{name: "already_queued", capacity: 4, retained: live},
		{name: "in_flight", capacity: 4, fetch: true, retained: live},
		{name: "full", capacity: 1, retained: Message{Offset: 8, Topic: "bulletin/xhariep"}, dropped: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sub := &AckSubscription{capacity: c.capacity}
			sub.offer(live)
			var got []Delivery
			if c.fetch {
				got = sub.Fetch(0)
			}
			sub.offerRetained(c.retained)
			got = append(got, sub.Fetch(0)...)
			if len(got) != 1 || got[0].Message.Offset != live.Offset {
				t.Fatalf("deliveries = %+v, want only offset %d once", got, live.Offset)
			}
			if d := sub.Dropped(); d != c.dropped {
				t.Fatalf("dropped = %d, want %d", d, c.dropped)
			}
		})
	}
}

func TestUnsubscribeAck(t *testing.T) {
	b := NewBroker()
	sub, _ := b.SubscribeAck("x/#", 10)
	b.UnsubscribeAck(sub)
	if _, err := b.Publish(Message{Topic: "x/t"}); err != nil {
		t.Fatal(err)
	}
	if q, _ := sub.Pending(); q != 0 {
		t.Error("closed ack subscription received a message")
	}
	b.UnsubscribeAck(nil) // no panic
}

func TestAckAndPlainSubscriptionsCoexist(t *testing.T) {
	b := NewBroker()
	plain, _ := b.Subscribe("x/#", 10, DropOldest)
	acked, _ := b.SubscribeAck("x/#", 10)
	n, err := b.Publish(Message{Topic: "x/t", Payload: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reached %d subscriptions, want 2", n)
	}
	if len(plain.Poll(0)) != 1 {
		t.Error("plain subscription missed the message")
	}
	if len(acked.Fetch(0)) != 1 {
		t.Error("ack subscription missed the message")
	}
	if b.Stats().Deliveries != 2 {
		t.Errorf("deliveries = %d", b.Stats().Deliveries)
	}
}

func TestSubscribeAckValidation(t *testing.T) {
	b := NewBroker()
	if _, err := b.SubscribeAck("bad//pattern", 10); err == nil {
		t.Error("invalid pattern should be rejected")
	}
}
