package graphlog

import (
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/rdf"
)

// BenchmarkGraphWALAppend measures the WAL layer of a commit — payload
// encode plus eventlog append of a bulletin-sized (6-triple) batch
// record — the per-commit durability overhead the store adds on top of
// the in-memory graph mutation.
func BenchmarkGraphWALAppend(b *testing.B) {
	st, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batch := walBatch{add: []rdf.IDTriple{
		{S: 1, P: 2, O: 3}, {S: 1, P: 4, O: 5}, {S: 1, P: 6, O: 7},
		{S: 1, P: 8, O: 9}, {S: 1, P: 10, O: 11}, {S: 1, P: 12, O: 13},
	}}
	now := time.Now().UTC()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendWALBatch(buf[:0], &batch)
		if _, err := st.wal.Append(eventlog.Record{Topic: walTopic, Time: now, Payload: buf}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAddBulletin is the end-to-end durable write: intern +
// WAL + in-memory apply of one six-triple bulletin.
func BenchmarkStoreAddBulletin(b *testing.B) {
	st, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AddAll(bulletin(i)...); err != nil {
			b.Fatal(err)
		}
	}
}
