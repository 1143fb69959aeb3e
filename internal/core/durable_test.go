package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/eventlog"
)

func openLogT(t *testing.T, dir string) *eventlog.Log {
	t.Helper()
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		t.Fatalf("eventlog.Open: %v", err)
	}
	return l
}

func durableBroker(t *testing.T, dir string) (*Broker, *eventlog.Log, int) {
	t.Helper()
	l := openLogT(t, dir)
	b := NewBroker()
	n, err := b.AttachLog(l)
	if err != nil {
		t.Fatalf("AttachLog: %v", err)
	}
	return b, l, n
}

// seqPayload is the payload publishSeq sends as its i-th message.
func seqPayload(i int) any { return map[string]any{"value": float64(i)} }

func publishSeq(t *testing.T, b *Broker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := b.Publish(Message{
			Topic:   fmt.Sprintf("obs/d%d/Rainfall", i%4),
			Time:    time.Date(2015, 3, 1, 0, 0, i, 0, time.UTC),
			Payload: seqPayload(i),
		})
		if err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
}

func TestPublishAssignsMonotonicOffsets(t *testing.T) {
	b := NewBroker()
	sub, err := b.Subscribe("obs/#", 64, DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, b, 5)
	msgs := sub.Poll(0)
	if len(msgs) != 5 {
		t.Fatalf("delivered %d, want 5", len(msgs))
	}
	for i, m := range msgs {
		if m.Offset != uint64(i+1) {
			t.Fatalf("message %d: offset %d, want %d", i, m.Offset, i+1)
		}
	}
	if b.NextOffset() != 6 {
		t.Fatalf("NextOffset %d, want 6", b.NextOffset())
	}
}

func TestWriteThroughAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	b, l, recovered := durableBroker(t, dir)
	if recovered != 0 {
		t.Fatalf("fresh log recovered %d records", recovered)
	}
	publishSeq(t, b, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b2, l2, recovered := durableBroker(t, dir)
	defer l2.Close()
	if recovered != 12 {
		t.Fatalf("recovered %d records, want 12", recovered)
	}
	if b2.NextOffset() != 13 {
		t.Fatalf("recovered NextOffset %d, want 13", b2.NextOffset())
	}
	// Retained state matches: the latest message per topic survives the
	// restart (payloads come back as the stored JSON).
	for d := 0; d < 4; d++ {
		topic := fmt.Sprintf("obs/d%d/Rainfall", d)
		m, ok := b2.Retained(topic)
		if !ok {
			t.Fatalf("topic %s lost across restart", topic)
		}
		orig, _ := b.Retained(topic)
		if m.Offset != orig.Offset {
			t.Fatalf("topic %s: recovered offset %d, want %d", topic, m.Offset, orig.Offset)
		}
		got, _ := json.Marshal(m.Payload)
		want, _ := json.Marshal(orig.Payload)
		if string(got) != string(want) {
			t.Fatalf("topic %s: recovered payload %s, want %s", topic, got, want)
		}
	}
	// The offset sequence continues across the restart.
	if _, err := b2.Publish(Message{Topic: "obs/d0/Rainfall", Time: time.Now(), Payload: 1}); err != nil {
		t.Fatal(err)
	}
	if m, _ := b2.Retained("obs/d0/Rainfall"); m.Offset != 13 {
		t.Fatalf("post-restart publish got offset %d, want 13", m.Offset)
	}
}

// TestCrashRecoveryMatchesNeverCrashedRun is the torn-write acceptance
// test at the broker level: a crash that tears the last record mid-write
// must recover to exactly the state of a run that only ever saw the
// complete records.
func TestCrashRecoveryMatchesNeverCrashedRun(t *testing.T) {
	const total = 15 // record `total` is torn; 14 survive
	dir := t.TempDir()
	b, l, _ := durableBroker(t, dir)
	publishSeq(t, b, total)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-4); err != nil {
		t.Fatal(err)
	}

	// The reference: a broker that never crashed, fed the surviving
	// prefix through its own log.
	refDir := t.TempDir()
	ref, refLog, _ := durableBroker(t, refDir)
	defer refLog.Close()
	publishSeq(t, ref, total-1)

	crashed, l2, recovered := durableBroker(t, dir)
	defer l2.Close()
	if recovered != total-1 {
		t.Fatalf("recovered %d records, want %d", recovered, total-1)
	}
	if crashed.NextOffset() != ref.NextOffset() {
		t.Fatalf("NextOffset %d, want %d", crashed.NextOffset(), ref.NextOffset())
	}
	// Retained state must be identical.
	for d := 0; d < 4; d++ {
		topic := fmt.Sprintf("obs/d%d/Rainfall", d)
		got, gotOK := crashed.Retained(topic)
		want, wantOK := ref.Retained(topic)
		if gotOK != wantOK {
			t.Fatalf("topic %s: retained presence %v, want %v", topic, gotOK, wantOK)
		}
		if !wantOK {
			continue
		}
		if got.Offset != want.Offset || got.Topic != want.Topic || !got.Time.Equal(want.Time) {
			t.Fatalf("topic %s: recovered %+v, want %+v", topic, got, want)
		}
	}
	// Replayed history must be identical too (offsets, topics, times), and
	// every payload must be the JSON the publisher's message marshaled to.
	collect := func(b *Broker) []Message {
		var out []Message
		if _, err := b.ReplayFrom(0, "#", func(m Message) error {
			out = append(out, m)
			return nil
		}); err != nil {
			t.Fatalf("ReplayFrom: %v", err)
		}
		return out
	}
	gotHist, wantHist := collect(crashed), collect(ref)
	if len(gotHist) != len(wantHist) {
		t.Fatalf("history length %d, want %d", len(gotHist), len(wantHist))
	}
	for i := range gotHist {
		g, w := gotHist[i], wantHist[i]
		if g.Offset != w.Offset || g.Topic != w.Topic || !g.Time.Equal(w.Time) {
			t.Fatalf("history[%d]: %+v, want %+v", i, g, w)
		}
		raw, _ := g.Payload.(json.RawMessage)
		if want := marshalPayload(seqPayload(i)); !bytes.Equal(raw, want) {
			t.Fatalf("history[%d]: payload %T %s, want json.RawMessage %s", i, g.Payload, g.PayloadJSON(), want)
		}
	}
}

// TestRecoveredPayloadIsStoredJSON: a message read back from the log —
// retained after a restart, or handed out by ReplayFrom — carries the
// record's stored JSON as its payload, and PayloadJSON returns those very
// bytes. Recovery must not decode payloads: the allocation bound per
// replayed record fails if a decode into generic values comes back.
func TestRecoveredPayloadIsStoredJSON(t *testing.T) {
	const n, topics = 400, 8
	l := filledLog(t, n, topics)
	defer l.Close()
	stored := make(map[uint64][]byte, n)
	last := make(map[string]uint64, topics)
	if _, err := l.Scan(0, func(rec eventlog.Record) error {
		stored[rec.Offset] = rec.Payload
		last[rec.Topic] = rec.Offset
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b := NewBroker()
	if got, err := b.AttachLog(l); err != nil || got != n {
		t.Fatalf("AttachLog recovered %d, %v; want %d", got, err, n)
	}

	check := func(what string, m Message) {
		t.Helper()
		raw, ok := m.Payload.(json.RawMessage)
		if !ok {
			t.Fatalf("%s: payload is %T, want json.RawMessage", what, m.Payload)
		}
		if !bytes.Equal(raw, stored[m.Offset]) {
			t.Fatalf("%s: payload %s, logged %s", what, raw, stored[m.Offset])
		}
		if pj := m.PayloadJSON(); len(pj) == 0 || &pj[0] != &raw[0] {
			t.Fatalf("%s: PayloadJSON %s is not the stored slice", what, pj)
		}
	}
	for topic, off := range last {
		m, ok := b.Retained(topic)
		if !ok || m.Offset != off {
			t.Fatalf("retained %s: offset %d (present %v), want %d", topic, m.Offset, ok, off)
		}
		check("retained "+topic, m)
	}
	replayed := 0
	if _, err := b.ReplayFrom(0, "#", func(m Message) error {
		replayed++
		check(fmt.Sprintf("replayed offset %d", m.Offset), m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != n {
		t.Fatalf("replayed %d records, want %d", replayed, n)
	}

	// A replayed record of this shape costs 3 allocations (the payload
	// copy, the encode cache, the payload's interface box; its header map
	// is shared); unmarshaling its three-field object payload into
	// generic values adds 13 more.
	const maxPerRecord = 10
	perRecord := testing.AllocsPerRun(5, func() {
		if _, err := b.ReplayFrom(0, "#", func(Message) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}) / n
	if perRecord > maxPerRecord {
		t.Fatalf("ReplayFrom allocates %.1f times per record, want <= %d", perRecord, maxPerRecord)
	}
}

func TestReplayFromPatternAndCursor(t *testing.T) {
	dir := t.TempDir()
	b, l, _ := durableBroker(t, dir)
	defer l.Close()
	publishSeq(t, b, 8) // topics obs/d0..d3, offsets 1..8

	var got []uint64
	next, err := b.ReplayFrom(3, "obs/d1/#", func(m Message) error {
		got = append(got, m.Offset)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayFrom: %v", err)
	}
	// d1 messages are offsets 2 and 6; only 6 is >= 3.
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("replayed offsets %v, want [6]", got)
	}
	if next != b.NextOffset() {
		t.Fatalf("next cursor %d, want %d", next, b.NextOffset())
	}

	if _, err := b.ReplayFrom(0, "not//valid", func(Message) error { return nil }); err == nil {
		t.Fatal("bad pattern accepted")
	}
	memOnly := NewBroker()
	if _, err := memOnly.ReplayFrom(0, "#", func(Message) error { return nil }); err != ErrNoLog {
		t.Fatalf("in-memory ReplayFrom error %v, want ErrNoLog", err)
	}
}

func TestPublishBatchWriteThrough(t *testing.T) {
	dir := t.TempDir()
	b, l, _ := durableBroker(t, dir)
	msgs := make([]Message, 6)
	for i := range msgs {
		msgs[i] = Message{Topic: fmt.Sprintf("obs/d%d/NDVI", i%2), Time: time.Now(), Payload: i}
	}
	if _, err := b.PublishBatch(msgs); err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		if msgs[i].Offset != uint64(i+1) {
			t.Fatalf("batch message %d: offset %d", i, msgs[i].Offset)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, l2, recovered := durableBroker(t, dir)
	defer l2.Close()
	if recovered != 6 {
		t.Fatalf("recovered %d batch records, want 6", recovered)
	}
}

// TestWriteThroughRefusal: a durable broker whose log refuses the append
// publishes nothing — the call fails, no subscriber sees the message,
// nothing is retained and nothing is counted as published.
func TestWriteThroughRefusal(t *testing.T) {
	msg := Message{Topic: "obs/mangaung/Rainfall", Time: time.Now(), Payload: 2.5}
	for _, tc := range []struct {
		name    string
		publish func(*Broker) (int, error)
	}{
		{"Publish", func(b *Broker) (int, error) { return b.Publish(msg) }},
		{"PublishBatch", func(b *Broker) (int, error) { return b.PublishBatch([]Message{msg, msg}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, l, _ := durableBroker(t, t.TempDir())
			sub, err := b.Subscribe("obs/#", 0, DropOldest)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			n, err := tc.publish(b)
			if err == nil {
				t.Fatalf("%s on a closed log succeeded with %d deliveries", tc.name, n)
			}
			if n != 0 {
				t.Errorf("%s reported %d deliveries on failure", tc.name, n)
			}
			if got := sub.Poll(0); len(got) != 0 {
				t.Errorf("subscriber saw %d messages that were never logged", len(got))
			}
			select {
			case <-sub.Ready():
				t.Error("subscriber was woken for a refused publish")
			default:
			}
			if _, ok := b.Retained(msg.Topic); ok {
				t.Error("refused message is retained")
			}
			if p := b.Stats().Published; p != 0 {
				t.Errorf("Stats().Published = %d after a refused publish, want 0", p)
			}
		})
	}
}

// TestAttachLogRequiresFreshBroker: attaching after in-memory publishes
// would collide the broker's offset sequence with the log's — the
// broker must refuse instead of bricking every later publish.
func TestAttachLogRequiresFreshBroker(t *testing.T) {
	l := openLogT(t, t.TempDir())
	defer l.Close()
	b := NewBroker()
	publishSeq(t, b, 3)
	if _, err := b.AttachLog(l); err == nil {
		t.Fatal("AttachLog accepted a broker that already published")
	}
	// The broker keeps working in-memory, and the log stays clean for a
	// fresh broker.
	if _, err := b.Publish(Message{Topic: "obs/d0/Rainfall", Payload: 1}); err != nil {
		t.Fatalf("publish after refused attach: %v", err)
	}
	fresh := NewBroker()
	if _, err := fresh.AttachLog(l); err != nil {
		t.Fatalf("fresh broker attach: %v", err)
	}
	if fresh.NextOffset() != 1 {
		t.Fatalf("log gained records from the refused attach: next %d", fresh.NextOffset())
	}
}

// TestAttachLogConcurrentSubscribe: AttachLog rebuilds retained state
// from the WAL without holding subMu across the file I/O (regression:
// it used to, stalling every Subscribe for the whole recovery).
// Subscriptions churning during the replay must make progress, and the
// attach must still replay every record.
func TestAttachLogConcurrentSubscribe(t *testing.T) {
	dir := t.TempDir()
	const records = 4000
	l := openLogT(t, dir)
	for i := 0; i < records; i++ {
		if _, err := l.Append(eventlog.Record{
			Topic:   fmt.Sprintf("obs/d%d/Rainfall", i%8),
			Time:    time.Now(),
			Payload: []byte("1"),
		}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("closing seed log: %v", err)
	}

	l2 := openLogT(t, dir)
	defer l2.Close()
	b := NewBroker()
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		churned := 0
		for {
			select {
			case <-stop:
				done <- churned
				return
			default:
			}
			sub, err := b.Subscribe("obs/#", 8, DropOldest)
			if err != nil {
				t.Errorf("subscribe during attach: %v", err)
				done <- churned
				return
			}
			b.Unsubscribe(sub)
			churned++
		}
	}()
	n, err := b.AttachLog(l2)
	close(stop)
	churned := <-done
	if err != nil {
		t.Fatalf("AttachLog with concurrent subscribers: %v", err)
	}
	if n != records {
		t.Fatalf("replayed %d records, want %d", n, records)
	}
	if churned == 0 {
		t.Log("no subscribe completed during the replay window (slow machine?) — liveness not exercised")
	}
}

// TestAttachLogConcurrentAttach: when two goroutines race to attach,
// the post-replay re-check must let exactly one win; the loser reports
// an error instead of silently overwriting the winner's log pointer.
func TestAttachLogConcurrentAttach(t *testing.T) {
	la := openLogT(t, t.TempDir())
	defer la.Close()
	lb := openLogT(t, t.TempDir())
	defer lb.Close()
	b := NewBroker()
	errs := make(chan error, 2)
	for _, l := range []*eventlog.Log{la, lb} {
		go func(l *eventlog.Log) {
			_, err := b.AttachLog(l)
			errs <- err
		}(l)
	}
	failed := 0
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d of 2 concurrent attaches failed, want exactly 1", failed)
	}
	if b.Log() == nil {
		t.Fatal("no log attached after the race")
	}
}
