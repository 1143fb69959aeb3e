package core

import (
	"errors"

	"repro/internal/eventlog"
)

// ErrNoLog is returned by replay APIs when the broker has no event log
// attached.
var ErrNoLog = errors.New("core: broker has no event log")

// AttachLog makes the broker durable: every subsequent publish is
// written through to l before fan-out (the log's sequencer assigns the
// broker's offsets), and the broker's state is first recovered from the
// log — the retained stripes are rebuilt from history (the last record
// per topic wins, exactly the in-memory retention rule). Recovered
// messages carry their stored JSON as a read-only json.RawMessage
// payload; nothing is decoded. Attach before any traffic, typically
// right after NewBroker over a directory that may hold a previous run's
// log; the number of replayed records is returned.
func (b *Broker) AttachLog(l *eventlog.Log) (int, error) {
	return b.AttachLogVisit(l, nil)
}

// AttachLogVisit is AttachLog that also hands every recovered record to
// visit, in offset order, during the recovery scan. A consumer that must
// read the whole log at startup rides on that scan instead of paying
// for a second one. A visit error aborts the attach and is returned.
func (b *Broker) AttachLogVisit(l *eventlog.Log, visit func(eventlog.Record) error) (int, error) {
	// Check eligibility under subMu, but release it before the replay:
	// rebuilding retained state reads the entire WAL, and the retained
	// stripes carry their own locks — holding the subscription mutex
	// across that file I/O would stall every subscribe for the whole
	// recovery.
	b.subMu.Lock()
	attached := b.log.Load() != nil
	seq := b.seq.Load()
	b.subMu.Unlock()
	if attached {
		return 0, errors.New("core: broker already has an event log")
	}
	// A broker that already published in-memory has offsets the log never
	// saw; attaching now would collide the two sequences (in-memory
	// offsets overlap the log's append offsets, breaking resume cursors
	// and retained ordering). Refuse instead.
	if seq != 0 {
		return 0, errors.New("core: AttachLog requires a fresh broker (attach before any publish)")
	}
	replayed := 0
	_, err := l.Scan(0, func(rec eventlog.Record) error {
		m := messageOf(rec)
		b.retain(&m)
		replayed++
		if visit != nil {
			return visit(rec)
		}
		return nil
	})
	if err != nil {
		return replayed, err
	}
	// Re-check under the lock before publishing the log pointer: a
	// competing AttachLog may have won, or an in-memory publish may have
	// slipped in during the unlocked replay (the old code, which held
	// subMu throughout, had the same race — Publish never takes subMu).
	b.subMu.Lock()
	defer b.subMu.Unlock()
	if b.log.Load() != nil {
		return replayed, errors.New("core: broker already has an event log")
	}
	if b.seq.Load() != 0 {
		return replayed, errors.New("core: AttachLog requires a fresh broker (attach before any publish)")
	}
	b.log.Store(l)
	return replayed, nil
}

// Log returns the attached event log, nil when the broker is in-memory
// only.
func (b *Broker) Log() *eventlog.Log {
	return b.log.Load()
}

// NextOffset returns the offset the next publish will receive: the
// log's next append offset for durable brokers, the atomic sequence
// plus one otherwise.
func (b *Broker) NextOffset() uint64 {
	if l := b.log.Load(); l != nil {
		return l.NextOffset()
	}
	return b.seq.Load() + 1
}

// CommitSignal returns a channel that the next durable publish closes
// once its records are in the log — the wake for a consumer tailing the
// log with ReplayFrom. To park without losing a commit, take the channel
// first, then replay up to NextOffset, then wait on the channel: a
// publish that lands after the replay's snapshot finds the channel
// installed and closes it (installing the channel and advancing the
// offset are both sequentially consistent, so one side always sees the
// other). Every tailer parked in the same interval shares one channel,
// and a publish with no tailer parked pays one atomic load.
func (b *Broker) CommitSignal() <-chan struct{} {
	for {
		if p := b.commit.Load(); p != nil {
			return *p
		}
		ch := make(chan struct{})
		if b.commit.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// notifyCommit wakes every parked tailer after an offset advance. The
// swap to nil makes the closer unique, and a tailer that parks after it
// installs a fresh channel.
func (b *Broker) notifyCommit() {
	if p := b.commit.Load(); p != nil && b.commit.CompareAndSwap(p, nil) {
		close(*p)
	}
}

// ReplayFrom streams every logged message with offset >= from whose
// topic matches pattern to fn, in offset order, up to the log's end at
// call time; it returns the next offset to replay from (pass it back in
// to continue after new publishes). History older than the retention
// horizon is gone — callers start at the oldest surviving record. Each
// message's payload is its stored JSON, a read-only json.RawMessage. fn
// errors abort the replay. Requires an attached log.
func (b *Broker) ReplayFrom(from uint64, pattern string, fn func(Message) error) (uint64, error) {
	if err := ValidatePattern(pattern); err != nil {
		return 0, err
	}
	l := b.log.Load()
	if l == nil {
		return 0, ErrNoLog
	}
	return l.Scan(from, func(rec eventlog.Record) error {
		if !TopicMatch(pattern, rec.Topic) {
			return nil
		}
		return fn(messageOf(rec))
	})
}

// messageOf converts a durable record back to a message without decoding
// its payload: Payload is the record's stored JSON as a json.RawMessage,
// and the same slice is the message's encode cache, so PayloadJSON and
// a gateway rendering SSE frames return the stored bytes as they are.
// The slice is the decoder's fresh copy, shared by every copy of the
// message — read-only, like PayloadJSON's result. The log only holds
// valid JSON (the broker marshaled it, or checked a raw payload with
// json.Valid), and its CRC check rejects corrupt frames.
func messageOf(rec eventlog.Record) Message {
	m := Message{Offset: rec.Offset, Topic: rec.Topic, Time: rec.Time, Headers: rec.Headers}
	if len(rec.Payload) > 0 {
		m.Payload = rec.Payload
		m.cache = &msgCache{payload: rec.Payload}
	}
	return m
}
