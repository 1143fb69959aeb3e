package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side of
// the layer's exported API. Items is what went in, Out what came out,
// Failed what the layer rejected or lost.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Items   int    `json:"items"`
	Out     int    `json:"out,omitempty"`
	Failed  int    `json:"failed,omitempty"`
}

// tracer keeps one run's spans in memory; they are written out when the
// run ends. The root span is the untraced end-to-end figure the ladders
// are reconciled against.
type tracer struct {
	Workload string `json:"workload"`
	RunID    string `json:"run_id"`
	Root     string `json:"root"`
	Spans    []span `json:"spans"`
	epoch    time.Time
}

func newTracer(workload string, seed int64, root string) *tracer {
	return &tracer{
		Workload: workload,
		RunID:    fmt.Sprintf("%s-seed%d", workload, seed),
		Root:     root,
		epoch:    time.Now(),
	}
}

// openSpan is a span whose end has not been recorded yet.
type openSpan struct {
	t *tracer
	i int
}

// start opens a span; on a nil tracer it records nothing, so a pass can
// replay stages another pass already traced.
func (t *tracer) start(name, parent string) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.Spans = append(t.Spans, span{Name: name, Parent: parent, StartNS: time.Since(t.epoch).Nanoseconds()})
	return openSpan{t, len(t.Spans) - 1}
}

func (o openSpan) end(items, out, failed int) {
	if o.t == nil {
		return
	}
	s := &o.t.Spans[o.i]
	s.EndNS = time.Since(o.t.epoch).Nanoseconds()
	s.Items, s.Out, s.Failed = items, out, failed
}

// add records a span measured elsewhere (the root: an untraced run).
func (t *tracer) add(name, parent string, d time.Duration, items int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.Spans = append(t.Spans, span{Name: name, Parent: parent, StartNS: now - d.Nanoseconds(), EndNS: now, Items: items})
}

// layerRow is one layer's totals over a traced run.
type layerRow struct {
	Layer     string  `json:"layer"`
	Parent    string  `json:"parent"`
	Calls     int     `json:"calls"`
	ItemsIn   int     `json:"items_in"`
	ItemsOut  int     `json:"items_out"`
	Failed    int     `json:"failed"`
	TotalS    float64 `json:"total_s"`
	BusyS     float64 `json:"busy_s"`
	USPerItem float64 `json:"us_per_item"`
	Share     float64 `json:"share"`
}

// layers folds the spans by name. A layer's self time (busy_s) is its
// total minus the totals of the layers that name it as parent — child
// spans nested inside it, or the rung below it on a ladder that replays
// the same inputs one layer deeper. Share is self time over the root's
// total; the root's own self time over its total is the residual the
// ladders leave unexplained.
func (t *tracer) layers() (rows []layerRow, residualFrac float64) {
	byName := map[string]*layerRow{}
	var order []string
	for _, s := range t.Spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Layer: s.Name, Parent: s.Parent}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		r.Calls++
		r.ItemsIn += s.Items
		r.ItemsOut += s.Out
		r.Failed += s.Failed
		r.TotalS += float64(s.EndNS-s.StartNS) / 1e9
	}
	for _, r := range byName {
		r.BusyS = r.TotalS
	}
	for _, r := range byName {
		if p := byName[r.Parent]; p != nil {
			p.BusyS -= r.TotalS
		}
	}
	rootTotal := 0.0
	if root := byName[t.Root]; root != nil {
		rootTotal = root.TotalS
		residualFrac = root.BusyS / root.TotalS
	}
	for _, name := range order {
		r := byName[name]
		if r.ItemsIn > 0 {
			r.USPerItem = r.BusyS * 1e6 / float64(r.ItemsIn)
		}
		if rootTotal > 0 {
			r.Share = r.BusyS / rootTotal
		}
		rows = append(rows, *r)
	}
	return rows, residualFrac
}

// spanCost is the measured cost of recording one span, for
// trace_overhead_frac.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer("calibrate", 0, "")
	t.Spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.start("x", "").end(1, 1, 0)
	}
	return time.Since(start) / n
}

// finishTrace turns a tracer into the result's per-layer section.
func finishTrace(tr *tracer, o opts, r *result, tracedWall time.Duration) error {
	rows, residual := tr.layers()
	r.Layers = rows
	busy := 0.0
	for _, row := range rows {
		if row.Layer != tr.Root {
			busy += row.BusyS
		}
	}
	overhead := float64(len(tr.Spans)) * spanCost().Seconds() / tracedWall.Seconds()
	r.PerLayer = []metric{
		{Name: "layer_busy_s", Slot: "layer_busy_s", Value: busy, Unit: "s", Better: "lower"},
		{Name: "residual_frac", Slot: "residual_frac", Value: residual, Unit: "1", Better: "lower"},
		{Name: "trace_overhead_frac", Slot: "trace_overhead_frac", Value: overhead, Unit: "1", Better: "lower"},
		{Name: "spans", Value: float64(len(tr.Spans)), Unit: "count"},
	}
	path, err := tr.write(o.outDir)
	r.Trace = path
	return err
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.Workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// formatLayers renders the per-layer table, largest self time first
// after the root.
func formatLayers(rows []layerRow) string {
	sorted := append([]layerRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].BusyS > sorted[j].BusyS })
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-26s %-22s %8s %10s %10s %7s %9s %11s %7s\n",
		"layer", "parent", "calls", "items_in", "items_out", "failed", "busy_s", "us_per_item", "share")
	for _, r := range sorted {
		fmt.Fprintf(&sb, "  %-26s %-22s %8d %10d %10d %7d %9.4f %11.3f %7.3f\n",
			r.Layer, r.Parent, r.Calls, r.ItemsIn, r.ItemsOut, r.Failed, r.BusyS, r.USPerItem, r.Share)
	}
	return sb.String()
}
