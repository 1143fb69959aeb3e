package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eventlog"
)

// objectMessage is the recovery benchmarks' record shape: a three-field
// object payload with one header, over topics topics — what a mediated
// observation looks like on the wire.
func objectMessage(i, topics int) Message {
	return Message{
		Topic:   fmt.Sprintf("obs/d%d/Rainfall", i%topics),
		Time:    time.Date(2015, 3, 1, 0, 0, i, 0, time.UTC),
		Payload: map[string]any{"district": fmt.Sprintf("d%d", i%topics), "value": float64(i) / 4, "unit": "mm"},
		Headers: map[string]string{"source": "wsn"},
	}
}

// filledLog publishes n object messages over topics topics through a
// durable broker, closes the log and reopens it: the returned log is
// what a restarted process would find on disk.
func filledLog(tb testing.TB, n, topics int) *eventlog.Log {
	tb.Helper()
	dir := tb.TempDir()
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBroker()
	if _, err := b.AttachLog(l); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := b.Publish(objectMessage(i, topics)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	l, err = eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

const (
	benchRecords = 50000
	benchTopics  = 300
)

// BenchmarkBrokerAttachLog measures restart recovery: a fresh broker
// attaching a 50k-record log rebuilds its retained set (the last record
// of each of 300 topics) from a full scan.
func BenchmarkBrokerAttachLog(b *testing.B) {
	l := filledLog(b, benchRecords, benchTopics)
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := NewBroker().AttachLog(l)
		if err != nil {
			b.Fatal(err)
		}
		if n != benchRecords {
			b.Fatalf("recovered %d records, want %d", n, benchRecords)
		}
	}
	b.ReportMetric(benchRecords, "records/op")
}

// BenchmarkBrokerReplayFrom measures the resume path: one ReplayFrom pass
// over the same 50k-record log, every record handed to the callback as a
// Message.
func BenchmarkBrokerReplayFrom(b *testing.B) {
	l := filledLog(b, benchRecords, benchTopics)
	defer l.Close()
	broker := NewBroker()
	if _, err := broker.AttachLog(l); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		if _, err := broker.ReplayFrom(0, "#", func(Message) error { got++; return nil }); err != nil {
			b.Fatal(err)
		}
		if got != benchRecords {
			b.Fatalf("replayed %d records, want %d", got, benchRecords)
		}
	}
	b.ReportMetric(benchRecords, "records/op")
}
