// Package oracle holds the offline chaos-recovery checks: after the
// harness server has been SIGKILLed, restarted, and finally shut down
// cleanly, these open the durable directories cold and decide whether
// recovery equals never-crashed — contiguous offsets, every acked
// publish present exactly once, and the bulletin graph at exact triple
// parity with the log.
package oracle

import (
	"fmt"
	"strings"

	"repro/internal/dissemination"
	"repro/internal/eventlog"
	"repro/internal/graphlog"
	"repro/internal/loadgen"
	"repro/internal/rdf"
)

// LogFacts is what one cold scan of a recovered event log establishes.
type LogFacts struct {
	Records      int64  `json:"records"`
	Bulletins    int64  `json:"bulletins"`
	OldestOffset uint64 `json:"oldest_offset"`
	NextOffset   uint64 `json:"next_offset"`
	// Contiguous is true when offsets run [OldestOffset, NextOffset)
	// with no gap or repeat — the log recovered a clean prefix.
	Contiguous bool `json:"contiguous"`
	// IDCounts maps loadgen.HeaderID values to occurrences in the log.
	IDCounts map[string]int `json:"-"`
}

// ScanLog opens the event log directory cold (exactly as a restarted
// server would) and audits every record.
func ScanLog(dir string) (*LogFacts, error) {
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("oracle: reopening log: %w", err)
	}
	defer l.Close()
	f := &LogFacts{
		OldestOffset: l.OldestOffset(),
		NextOffset:   l.NextOffset(),
		Contiguous:   true,
		IDCounts:     make(map[string]int),
	}
	want := f.OldestOffset
	if _, err := l.Scan(1, func(rec eventlog.Record) error {
		if rec.Offset != want {
			f.Contiguous = false
		}
		want = rec.Offset + 1
		f.Records++
		if strings.HasPrefix(rec.Topic, "bulletin/") {
			f.Bulletins++
		}
		if id := rec.Headers[loadgen.HeaderID]; id != "" {
			f.IDCounts[id]++
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("oracle: scanning log: %w", err)
	}
	if want != f.NextOffset {
		f.Contiguous = false
	}
	return f, nil
}

// DurabilityReport compares the publishers' ack bookkeeping against
// the recovered log.
type DurabilityReport struct {
	Acked     int `json:"acked"`
	Uncertain int `json:"uncertain"`
	// AckedMissing counts acked IDs absent from the log — with sync
	// publishing this must be zero (a lost acked publish).
	AckedMissing int `json:"acked_missing"`
	// AckedDuplicated counts acked IDs logged more than once — must be
	// zero always (publishers never retry).
	AckedDuplicated int `json:"acked_duplicated"`
	// UncertainSurvived counts ambiguous-outcome IDs that did land;
	// informational — either outcome is correct.
	UncertainSurvived int `json:"uncertain_survived"`
	// UncertainDuplicated must be zero: even an ambiguous send happened
	// at most once.
	UncertainDuplicated int `json:"uncertain_duplicated"`
	// MissingSample lists up to 5 lost acked IDs for the failure report.
	MissingSample []string `json:"missing_sample,omitempty"`
}

// OK reports whether the durability contract held.
func (d DurabilityReport) OK() bool {
	return d.AckedMissing == 0 && d.AckedDuplicated == 0 && d.UncertainDuplicated == 0
}

// CheckDurability audits acked and uncertain publish sets against the
// recovered log's ID census.
func CheckDurability(f *LogFacts, acked, uncertain map[string]struct{}) DurabilityReport {
	rep := DurabilityReport{Acked: len(acked), Uncertain: len(uncertain)}
	for id := range acked {
		switch f.IDCounts[id] {
		case 0:
			rep.AckedMissing++
			if len(rep.MissingSample) < 5 {
				rep.MissingSample = append(rep.MissingSample, id)
			}
		case 1:
		default:
			rep.AckedDuplicated++
		}
	}
	for id := range uncertain {
		switch f.IDCounts[id] {
		case 0:
		case 1:
			rep.UncertainSurvived++
		default:
			rep.UncertainDuplicated++
		}
	}
	return rep
}

// GraphReport compares the recovered bulletin graph against the log.
type GraphReport struct {
	Triples       int   `json:"triples"`
	BulletinNodes int   `json:"bulletin_nodes"`
	WantTriples   int64 `json:"want_triples"`
	// Parity: triples == loadgen.BulletinTriples × log bulletin records
	// and one typed node per record — the materialized view converged
	// to exactly the recovered log.
	Parity bool `json:"parity"`
}

// CheckGraph opens the graph store cold. Opening runs the same
// recovery a restarted server performs (WAL replay), but NOT
// the repair dews.NewSystem runs against the event log — so this checks
// the state the last server instance actually persisted.
func CheckGraph(graphDir string, f *LogFacts) (*GraphReport, error) {
	store, err := graphlog.Open(graphlog.Config{Dir: graphDir})
	if err != nil {
		return nil, fmt.Errorf("oracle: reopening graph: %w", err)
	}
	defer store.Close()
	g := store.Graph()
	rep := &GraphReport{
		Triples:       g.Len(),
		BulletinNodes: g.Count(nil, rdf.RDFType, dissemination.BulletinClass),
		WantTriples:   f.Bulletins * int64(loadgen.BulletinTriples),
	}
	rep.Parity = int64(rep.Triples) == rep.WantTriples && int64(rep.BulletinNodes) == f.Bulletins
	return rep, nil
}
