package graphlog

import "testing"

// BenchmarkStoreAddBulletin is the end-to-end durable write: dedup,
// WAL record encode + append, and in-memory apply of one six-triple
// bulletin.
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
