package oracle

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dews"
	"repro/internal/loadgen"
)

// TestOraclesAgainstCleanRun: a clean (never-crashed) run must pass
// every oracle — contiguous log, all acked IDs exactly once, graph at
// triple parity.
func TestOraclesAgainstCleanRun(t *testing.T) {
	logDir, graphDir := t.TempDir(), t.TempDir()
	sys, err := dews.NewSystem(dews.Config{LogDir: logDir, GraphDir: graphDir})
	if err != nil {
		t.Fatal(err)
	}
	mux, gw, err := sys.ServeMux()
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(mux)

	r := loadgen.NewRunner(loadgen.RunConfig{
		Target: hs.URL, Seed: 11, Publishers: 2, Batch: 10,
		BulletinEvery: 4, SyncPublish: true,
	})
	res := r.RunLoad(context.Background(), 400*time.Millisecond)
	if res.Published == 0 {
		t.Fatal("nothing published")
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	facts, err := ScanLog(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if !facts.Contiguous {
		t.Error("clean log not contiguous")
	}
	if facts.Bulletins == 0 {
		t.Error("no bulletin records — graph oracle unexercised")
	}

	dur := CheckDurability(facts, r.Acked.Acked(), r.Acked.Uncertain())
	if !dur.OK() {
		t.Errorf("durability oracle failed on clean run: %+v", dur)
	}
	// The phase deadline cancels each publisher's last request in
	// flight; those batches are "uncertain" and may have landed. The
	// log must hold exactly acked + surviving-uncertain records.
	if facts.Records != int64(res.Published)+int64(dur.UncertainSurvived) {
		t.Errorf("log holds %d records, want %d acked + %d uncertain-survived",
			facts.Records, res.Published, dur.UncertainSurvived)
	}
	if dur.Acked != int(res.Published) {
		t.Errorf("acked set %d, published %d", dur.Acked, res.Published)
	}

	graph, err := CheckGraph(graphDir, facts)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Parity {
		t.Errorf("graph parity failed on clean run: %+v", graph)
	}
}

// TestDurabilityCatchesLoss: the oracle must actually flag a fabricated
// lost-ack and a duplicate.
func TestDurabilityCatchesLoss(t *testing.T) {
	facts := &LogFacts{IDCounts: map[string]int{"a": 1, "b": 2, "d": 1}}
	acked := map[string]struct{}{"a": {}, "b": {}, "c": {}}
	uncertain := map[string]struct{}{"d": {}, "e": {}}
	rep := CheckDurability(facts, acked, uncertain)
	if rep.OK() {
		t.Fatal("oracle passed a run with a lost ack and a duplicate")
	}
	if rep.AckedMissing != 1 || rep.AckedDuplicated != 1 {
		t.Errorf("missing=%d duplicated=%d, want 1 and 1", rep.AckedMissing, rep.AckedDuplicated)
	}
	if rep.UncertainSurvived != 1 || rep.UncertainDuplicated != 0 {
		t.Errorf("uncertain survived=%d duplicated=%d, want 1 and 0", rep.UncertainSurvived, rep.UncertainDuplicated)
	}
}
