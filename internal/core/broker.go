package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/eventlog"
)

// DropPolicy says what a full subscriber queue does with a new message.
type DropPolicy int

// Drop policies.
const (
	// DropOldest evicts the oldest queued message (default: fresh data
	// beats stale data in a monitoring system).
	DropOldest DropPolicy = iota
	// DropNewest rejects the incoming message.
	DropNewest
)

// subscriber is the behavior Publish/retain/replay needs from any
// subscription flavor. Subscription (at-most-once poll), AckSubscription
// (at-least-once fetch/ack) and handlerSub (push dispatch) all satisfy
// it, so fan-out, retained replay and stats accounting exist once.
type subscriber interface {
	// offer enqueues m and reports whether the mailbox's consumer has to
	// be woken for it: true exactly when the message landed in an empty
	// mailbox. Messages joining a non-empty mailbox ride on the wake owed
	// for the message already queued there.
	offer(m Message) bool
	// offerRetained is offer for the retained replay at subscribe time:
	// it skips a message whose offset the mailbox already holds, because
	// a publish racing the subscription may deliver the same message
	// both live (through the fresh trie snapshot) and via the retained
	// stripes.
	offerRetained(m Message)
	// wake tells the consumer the mailbox may be non-empty. It never
	// blocks; the publish path calls it outside every lock, once per
	// mailbox per call — a batch is fanned out whole before any wake.
	wake()
	shut()
	Dropped() int
}

// subEntry is one registered subscription in the broker's index.
type subEntry struct {
	id      int
	pattern string
	sub     subscriber
}

// Subscription is one subscriber's bounded mailbox. The queue is a ring
// buffer: DropOldest eviction overwrites the oldest slot in O(1) instead
// of shifting the whole queue, so a full mailbox (a slow SSE consumer at
// capacity 4096) prices an offer the same as an empty one.
type Subscription struct {
	// ID is the broker-assigned identity.
	ID int
	// Pattern is the topic filter.
	Pattern string

	policy DropPolicy
	mu     sync.Mutex
	// buf is the ring storage; it grows on demand up to cap. head is
	// the index of the oldest queued message, n the queued count.
	buf  []Message
	head int
	n    int
	cap  int
	// dropped counts messages lost to backpressure.
	dropped int
	// delivered counts messages enqueued.
	delivered int
	closed    bool
	// ready is the wake signal: capacity 1, so a wake is a non-blocking
	// send that leaves at most one token however many publishers race.
	ready chan struct{}
}

// newSubscription builds an unregistered mailbox (capacity default 1024
// when <= 0).
func newSubscription(pattern string, capacity int, policy DropPolicy) *Subscription {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Subscription{Pattern: pattern, cap: capacity, policy: policy, ready: make(chan struct{}, 1)}
}

// Ready returns the mailbox's wake signal, for a consumer that wants to
// block instead of poll. A token arrives after a publish call has put
// messages into the empty mailbox (one token per call, not per message)
// and after a retained replay at subscribe time. The protocol is edge
// triggered: after receiving, Poll(0) — everything, not a bounded batch —
// and only then wait again. A token with nothing behind it is possible
// and harmless; a queued message with no token on its way is not, because
// the publisher signals after it enqueues and the consumer polls after
// it receives.
func (s *Subscription) Ready() <-chan struct{} { return s.ready }

func (s *Subscription) wake() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// at returns the ring slot index for the i-th queued message.
func (s *Subscription) at(i int) int {
	return (s.head + i) % len(s.buf)
}

// Poll removes and returns up to max queued messages (all when max <= 0).
func (s *Subscription) Poll(max int) []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]Message, n)
	for i := 0; i < n; i++ {
		j := s.at(i)
		out[i] = s.buf[j]
		s.buf[j] = Message{} // release payload/cache references
	}
	if n > 0 {
		s.head = s.at(n)
		s.n -= n
	}
	return out
}

// Pending returns the queue depth.
func (s *Subscription) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns how many messages backpressure discarded.
func (s *Subscription) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Delivered returns how many messages were enqueued in total.
func (s *Subscription) Delivered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

func (s *Subscription) offer(m Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	wasEmpty := s.n == 0
	s.offerLocked(m)
	return wasEmpty && s.n > 0
}

func (s *Subscription) offerLocked(m Message) {
	if s.closed {
		return
	}
	if s.n == s.cap {
		if s.policy == DropNewest {
			s.dropped++
			return
		}
		// DropOldest: the tail slot coincides with the head slot when
		// the ring is full — overwrite it and advance the head.
		s.buf[s.head] = m
		s.head = (s.head + 1) % len(s.buf)
		s.dropped++
		s.delivered++
		return
	}
	if s.n == len(s.buf) {
		grown := len(s.buf) * 2
		if grown == 0 {
			grown = 8
		}
		if grown > s.cap {
			grown = s.cap
		}
		next := make([]Message, grown)
		for i := 0; i < s.n; i++ {
			next[i] = s.buf[s.at(i)]
		}
		s.buf = next
		s.head = 0
	}
	s.buf[(s.head+s.n)%len(s.buf)] = m
	s.n++
	s.delivered++
}

// offerRetained enqueues a retained message unless the mailbox already
// holds that offset (the subscribe/publish race can route one message
// through both the live and the retained path).
func (s *Subscription) offerRetained(m Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if m.Offset != 0 {
		for i := 0; i < s.n; i++ {
			if s.buf[s.at(i)].Offset == m.Offset {
				return
			}
		}
	}
	s.offerLocked(m)
}

func (s *Subscription) shut() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *Subscription) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// BrokerStats summarizes broker activity. The JSON tags are the wire
// shape of the gateway's /stats endpoint.
type BrokerStats struct {
	Published  int `json:"published"`
	Deliveries int `json:"deliveries"`
	// Drops totals backpressure losses across every subscription flavor,
	// including the at-least-once tier. It is cumulative: drops by
	// since-removed subscriptions stay counted.
	Drops int `json:"drops"`
	// Subscriptions counts all live registrations: plain, acknowledged
	// and push-handler subscriptions.
	Subscriptions int `json:"subscriptions"`
	// DispatchWorkers is the size of the push-mode worker pool, 0 when
	// the dispatcher is not running.
	DispatchWorkers int `json:"dispatch_workers"`
}

// retainStripes shards the retained-message map by topic hash so
// concurrent publishers on different topics update retained state
// without sharing a lock.
const retainStripes = 32

type retainStripe struct {
	mu sync.Mutex
	m  map[string]Message
}

// Broker is the application abstraction layer's pub/sub fabric. Delivery
// is synchronous fan-out into bounded per-subscriber queues; subscribers
// poll, fetch/ack, or receive pushes via the dispatcher.
//
// The publish hot path is lock-free with respect to broker state: the
// subscription index is an immutable trie snapshot loaded atomically,
// counters are atomics, retained messages live in hash-sharded stripes,
// and offset sequencing is delegated to the event log's own tiny
// critical section (or a bare atomic for in-memory brokers). Publishers
// therefore never wait on each other's fan-out, on subscription churn,
// or on /stats polls; see ARCHITECTURE.md, "Broker concurrency model".
type Broker struct {
	// index is the current subscription-trie snapshot (nil = empty).
	// Mutations (under subMu) build a new trie and swap the pointer;
	// Publish loads it without locks.
	//dewsvet:rcu
	index atomic.Pointer[trieNode]

	// subMu serializes subscription mutations and attach: entries,
	// nextID, and the index swap. The publish path never takes it.
	subMu   sync.Mutex
	entries map[int]*subEntry
	nextID  int

	published  atomic.Int64
	deliveries atomic.Int64
	// removedDrops accumulates the drop counts of unsubscribed
	// subscriptions so Stats stays cumulative.
	removedDrops atomic.Int64

	// seq assigns offsets for in-memory brokers (last assigned; first
	// publish gets 1). With a log attached the log is the sequencer and
	// seq stays untouched.
	seq atomic.Uint64
	// log, when set, receives a durable copy of every published message
	// before fan-out (write-through) and assigns its offsets.
	log atomic.Pointer[eventlog.Log]
	// commit is the log-tail wake: nil while no tailer is parked, else
	// the channel the next offset advance closes (see CommitSignal).
	commit atomic.Pointer[chan struct{}]

	// retained keeps the last message per concrete topic so late
	// subscribers can catch up (MQTT-style retained messages), sharded
	// by topic hash. retainedCount tracks the distinct-topic total for
	// the cap check without a global lock.
	retained      [retainStripes]retainStripe
	retainedCount atomic.Int64
	// retainedLimit caps distinct retained topics (0 = unlimited).
	retainedLimit atomic.Int64

	dispatchMu sync.Mutex
	dispatch   *dispatcher
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	b := &Broker{entries: make(map[int]*subEntry)}
	for i := range b.retained {
		b.retained[i].m = make(map[string]Message)
	}
	return b
}

// registerEntry indexes the subscriber under subMu and returns the
// assigned ID. The trie swap publishes the subscription to concurrent
// publishers at the moment of the Store.
func (b *Broker) registerEntry(pattern string, sub subscriber) int {
	b.subMu.Lock()
	b.nextID++
	e := &subEntry{id: b.nextID, pattern: pattern, sub: sub}
	b.entries[e.id] = e
	b.index.Store(trieInsert(b.index.Load(), pattern, true, e))
	b.subMu.Unlock()
	return e.id
}

// register validates the pattern, indexes the subscriber, replays
// retained messages in deterministic topic order, and returns the
// assigned ID. All subscription flavors funnel through here.
//
// Ordering matters: the index swap happens before the stripes are read,
// while Publish retains before loading the index. Whatever the
// interleaving, a message concurrent with the subscribe is therefore
// seen on at least one of the two paths (both operations are atomics/
// mutexes, which Go's memory model orders sequentially consistently);
// the case where it arrives on both is collapsed by offerRetained's
// offset check.
func (b *Broker) register(pattern string, sub subscriber) (int, error) {
	if err := ValidatePattern(pattern); err != nil {
		return 0, err
	}
	id := b.registerEntry(pattern, sub)
	retained := b.retainedMatches(pattern)
	for _, m := range retained {
		sub.offerRetained(m)
	}
	if len(retained) > 0 {
		sub.wake()
	}
	return id, nil
}

// retainedMatches collects the retained messages matching pattern,
// sorted by topic for deterministic replay order.
func (b *Broker) retainedMatches(pattern string) []Message {
	var out []Message
	for i := range b.retained {
		st := &b.retained[i]
		st.mu.Lock()
		for t, m := range st.m {
			if TopicMatch(pattern, t) {
				out = append(out, m)
			}
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

// remove closes and deregisters a subscription by ID. The subscription's
// backpressure losses are folded into the broker's cumulative drop
// counter so Stats keeps accounting for departed subscribers (the
// gateway disconnects slow SSE consumers; their drops must not vanish
// from /stats with them). Publishers still holding the previous trie
// snapshot may offer to the closed mailbox; those offers are no-ops.
func (b *Broker) remove(id int) {
	b.subMu.Lock()
	e, ok := b.entries[id]
	if !ok {
		b.subMu.Unlock()
		return
	}
	delete(b.entries, id)
	b.index.Store(trieRemove(b.index.Load(), e.pattern, true, id))
	b.subMu.Unlock()
	e.sub.shut()
	b.removedDrops.Add(int64(e.sub.Dropped()))
}

// Subscribe registers a pattern with a queue capacity (default 1024 when
// <= 0) and a drop policy. Retained messages matching the pattern are
// replayed into the new subscription immediately.
func (b *Broker) Subscribe(pattern string, capacity int, policy DropPolicy) (*Subscription, error) {
	sub := newSubscription(pattern, capacity, policy)
	id, err := b.register(pattern, sub)
	if err != nil {
		return nil, err
	}
	sub.ID = id
	return sub, nil
}

// Unsubscribe removes a subscription.
func (b *Broker) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	b.remove(sub.ID)
}

// SetRetainedLimit caps how many distinct topics the broker retains.
// Once the cap is reached, messages on new topics are still delivered
// but not retained (existing topics keep updating). The middleware's
// own topic universe is closed and small, but a network-facing broker
// (the gateway's /publish) must not let remote clients grow the
// retained map without bound. n <= 0 means unlimited.
func (b *Broker) SetRetainedLimit(n int) {
	b.retainedLimit.Store(int64(n))
}

// stripeFor hashes a topic (FNV-1a) to its retained stripe.
func (b *Broker) stripeFor(topic string) *retainStripe {
	h := uint32(2166136261)
	for i := 0; i < len(topic); i++ {
		h = (h ^ uint32(topic[i])) * 16777619
	}
	return &b.retained[h%retainStripes]
}

// retain stores a topic's latest message, honoring the retained-topic
// cap. Under concurrent publishers to the same topic the highest offset
// wins regardless of arrival order. The cap check reads the global
// count without a global lock, so simultaneous first-publishes to new
// topics in different stripes can overshoot the cap by at most the
// stripe count — the cap is an anti-abuse bound, not an exact quota.
func (b *Broker) retain(m *Message) {
	st := b.stripeFor(m.Topic)
	st.mu.Lock()
	cur, ok := st.m[m.Topic]
	switch {
	case !ok:
		if lim := b.retainedLimit.Load(); lim > 0 && b.retainedCount.Load() >= lim {
			st.mu.Unlock()
			return
		}
		b.retainedCount.Add(1)
		st.m[m.Topic] = *m
	case m.Offset > cur.Offset:
		st.m[m.Topic] = *m
	}
	st.mu.Unlock()
}

// matchPool recycles the scratch slices PublishBatch matches into, so a
// publish allocates no per-call match slice. Slices are returned to the
// pool emptied of entry pointers (a pooled slice must not pin departed
// subscribers).
var matchPool = sync.Pool{
	New: func() any { s := make([]*subEntry, 0, 16); return &s },
}

func putMatched(mp *[]*subEntry) {
	matched := *mp
	for i := range matched {
		matched[i] = nil
	}
	*mp = matched[:0]
	matchPool.Put(mp)
}

// Publish publishes one message: a batch of one through PublishBatch,
// so a single message and a batch share one write path.
//
// TestPublishAllocs pins its allocation budget.
func (b *Broker) Publish(m Message) (int, error) {
	return b.PublishBatch([]Message{m})
}

// PublishBatch fans each message out to every matching subscription,
// retains it, and returns the total number of subscription deliveries.
// Validation happens up front: an invalid message fails the whole batch
// before anything is published. The batch is stamped with a contiguous
// offset run and, when a log is attached, written through to it first
// under a single sequencer acquisition — a message that cannot be made
// durable is not delivered. The only lock a publish ever contends on is
// the log's own offset sequencer (and per-mailbox locks on fan-out):
// payload marshaling, record encoding, retained updates and trie
// matching all run outside any shared critical section.
//
// TestPublishBatchAllocs pins its allocation budget.
func (b *Broker) PublishBatch(msgs []Message) (int, error) {
	for i := range msgs {
		if err := msgs[i].Validate(); err != nil {
			return 0, err
		}
	}
	if len(msgs) == 0 {
		return 0, nil
	}
	n, err := b.stamp(msgs)
	b.published.Add(int64(n))
	// Retain before loading the index: paired with register's
	// index-swap-then-stripe-read order, this guarantees a concurrent
	// subscriber sees the message on at least one path.
	for i := range msgs[:n] {
		b.retain(&msgs[i])
	}
	if err != nil {
		// A write-through failure mid-batch aborts the batch: the first n
		// messages are already durable and retained (a restart replays
		// them) but nothing is fanned out — under a failing disk, losing
		// deliveries beats delivering what was never logged.
		return 0, err
	}
	// Wakes are held back until the whole batch is fanned out, so each
	// touched mailbox is woken once and its consumer finds the batch
	// complete. The owed wakes stay compacted at the front of the pooled
	// match slice and each message's matches are appended after them,
	// then cleared once offered (a pooled slice must not pin departed
	// subscribers). One index load serves the batch.
	mp := matchPool.Get().(*[]*subEntry)
	flat := *mp
	root := b.index.Load()
	owed, total := 0, 0
	for i := range msgs {
		flat = trieMatch(root, msgs[i].Topic, true, flat)
		total += len(flat) - owed
		for _, e := range flat[owed:] {
			if e.sub.offer(msgs[i]) {
				flat[owed] = e
				owed++
			}
		}
		clear(flat[owed:])
		flat = flat[:owed]
	}
	b.deliveries.Add(int64(total))
	for _, e := range flat {
		e.sub.wake()
	}
	*mp = flat
	putMatched(mp)
	return total, nil
}

// stamp is the only place offsets are assigned: a bare atomic for
// in-memory brokers, the log's sequencer (one AppendBatch) for durable
// ones — WAL order and offset order coincide by construction. A durable
// message also gets the shared encode cache: the payload JSON marshaled
// for the log is the same bytes every wire-facing subscriber (the
// gateway) will reuse, and the cache travels inside every fanned-out
// copy. It returns how many messages were stamped: all of them, or on a
// write-through failure the n the log took first.
func (b *Broker) stamp(msgs []Message) (int, error) {
	l := b.log.Load()
	if l == nil {
		last := b.seq.Add(uint64(len(msgs)))
		first := last - uint64(len(msgs)) + 1
		for i := range msgs {
			msgs[i].Offset = first + uint64(i)
		}
		return len(msgs), nil
	}
	// A batch of one (every Publish) keeps its record on the stack.
	var one [1]eventlog.Record
	recs := one[:]
	if len(msgs) > 1 {
		recs = make([]eventlog.Record, len(msgs))
	}
	for i := range msgs {
		c := newMsgCache(msgs[i].Payload)
		msgs[i].cache = c
		recs[i] = eventlog.Record{Topic: msgs[i].Topic, Time: msgs[i].Time, Payload: c.payload, Headers: msgs[i].Headers}
	}
	first, n, err := l.AppendBatch(recs)
	if n > 0 {
		b.notifyCommit()
	}
	for i := range msgs[:n] {
		msgs[i].Offset = first + uint64(i)
	}
	return n, err
}

// Stats returns current broker statistics across every subscription
// flavor, including at-least-once (ack) subscriptions and the
// accumulated drops of subscriptions that have since been removed.
// Counters are atomics and the subscription table is read under subMu —
// a /stats poll never touches the publish hot path.
func (b *Broker) Stats() BrokerStats {
	workers := 0
	if d := b.dispatcher(); d != nil {
		workers = d.workers
	}
	b.subMu.Lock()
	drops := b.removedDrops.Load()
	subs := len(b.entries)
	for _, e := range b.entries {
		drops += int64(e.sub.Dropped())
	}
	b.subMu.Unlock()
	return BrokerStats{
		Published:       int(b.published.Load()),
		Deliveries:      int(b.deliveries.Load()),
		Drops:           int(drops),
		Subscriptions:   subs,
		DispatchWorkers: workers,
	}
}

// Retained returns the retained message for a concrete topic.
func (b *Broker) Retained(topic string) (Message, bool) {
	st := b.stripeFor(topic)
	st.mu.Lock()
	m, ok := st.m[topic]
	st.mu.Unlock()
	return m, ok
}
