package core

import (
	"fmt"
	"sort"
	"sync"
)

// Delivery is one message handed to an acknowledged subscriber. The
// subscriber must Ack the sequence number; unacked deliveries are
// returned to the queue by Redeliver (at-least-once semantics).
type Delivery struct {
	// Seq is the subscription-scoped delivery sequence number.
	Seq uint64
	// Message is the delivered envelope.
	Message Message
}

// AckSubscription is a bounded mailbox with manual acknowledgement: the
// middleware's at-least-once QoS tier for consumers that must not lose
// bulletins (e.g. the SMS channel). Messages move queue → in-flight on
// Fetch, disappear on Ack, and return to the queue head on Redeliver.
type AckSubscription struct {
	// ID is the broker-assigned identity.
	ID int
	// Pattern is the topic filter.
	Pattern string

	mu       sync.Mutex
	queue    []Delivery
	inflight map[uint64]Delivery
	capacity int
	seq      uint64
	dropped  int
	acked    int
	closed   bool
}

// offer never asks for a wake: ack queues are fetched, nobody parks on
// them.
func (s *AckSubscription) offer(m Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	// Backpressure counts queue + in-flight: unacked work is still work.
	if len(s.queue)+len(s.inflight) >= s.capacity {
		s.dropped++
		return false // at-least-once drops newest: losing old unacked silently would lie
	}
	s.seq++
	s.queue = append(s.queue, Delivery{Seq: s.seq, Message: m})
	return false
}

func (s *AckSubscription) wake() {}

// offerRetained enqueues a retained message unless the mailbox (queued
// or in-flight) already holds that offset — the subscribe/publish race
// can route one message through both the live and the retained path,
// and the at-least-once tier must not turn that into a double delivery
// at subscribe time.
func (s *AckSubscription) offerRetained(m Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if m.Offset != 0 {
		for _, d := range s.queue {
			if d.Message.Offset == m.Offset {
				return
			}
		}
		for _, d := range s.inflight {
			if d.Message.Offset == m.Offset {
				return
			}
		}
	}
	if len(s.queue)+len(s.inflight) >= s.capacity {
		s.dropped++
		return
	}
	s.seq++
	s.queue = append(s.queue, Delivery{Seq: s.seq, Message: m})
}

func (s *AckSubscription) shut() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Fetch moves up to max messages (all when max <= 0) into the in-flight
// set and returns them.
func (s *AckSubscription) Fetch(max int) []Delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.queue)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Delivery, n)
	copy(out, s.queue[:n])
	s.queue = append(s.queue[:0], s.queue[n:]...)
	if s.inflight == nil {
		s.inflight = make(map[uint64]Delivery)
	}
	for _, d := range out {
		s.inflight[d.Seq] = d
	}
	return out
}

// Ack acknowledges a delivery; unknown sequence numbers error (they
// indicate double-ack or ack-after-redeliver bugs in the consumer).
func (s *AckSubscription) Ack(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.inflight[seq]; !ok {
		return fmt.Errorf("core: ack of unknown delivery %d", seq)
	}
	delete(s.inflight, seq)
	s.acked++
	return nil
}

// Redeliver returns every in-flight delivery to the queue head in
// sequence order and reports how many moved.
func (s *AckSubscription) Redeliver() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inflight) == 0 {
		return 0
	}
	back := make([]Delivery, 0, len(s.inflight))
	for _, d := range s.inflight {
		back = append(back, d)
	}
	sort.Slice(back, func(i, j int) bool { return back[i].Seq < back[j].Seq })
	s.queue = append(back, s.queue...)
	n := len(s.inflight)
	s.inflight = make(map[uint64]Delivery)
	return n
}

// Pending returns (queued, in-flight) depths.
func (s *AckSubscription) Pending() (queued, inflight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), len(s.inflight)
}

// Acked returns the number of acknowledged deliveries.
func (s *AckSubscription) Acked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Capacity returns the mailbox bound (queued + in-flight).
func (s *AckSubscription) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity
}

// Dropped returns messages refused due to backpressure.
func (s *AckSubscription) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SubscribeAck registers an at-least-once subscription (capacity default
// 1024). Retained messages are replayed like for plain subscriptions.
func (b *Broker) SubscribeAck(pattern string, capacity int) (*AckSubscription, error) {
	if capacity <= 0 {
		capacity = 1024
	}
	sub := &AckSubscription{Pattern: pattern, capacity: capacity}
	id, err := b.register(pattern, sub)
	if err != nil {
		return nil, err
	}
	sub.ID = id
	return sub, nil
}

// UnsubscribeAck removes an acknowledged subscription. In-flight and
// queued deliveries remain fetchable so a consumer can finish
// outstanding work; the mailbox just receives nothing new.
func (b *Broker) UnsubscribeAck(sub *AckSubscription) {
	if sub == nil {
		return
	}
	b.remove(sub.ID)
}
