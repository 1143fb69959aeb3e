package dews

// Golden-schema regression for the full /stats document. Operators,
// dashboards, tools/benchguard and cmd/dewsload all key on these
// exact section and counter names; a silent rename or type change
// breaks them long after the code change that caused it. The schema
// below is the contract: every leaf must exist with the right JSON
// kind, and no undocumented key may appear — drift fails in CI either
// way, forcing the schema (and the consumers) to be updated in the
// same PR that changes the shape.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
)

// kind is the JSON type a schema leaf requires.
type kind int

const (
	kNum kind = iota
	kObj      // object with unchecked contents (free-form maps)
)

// node is either a leaf (checked kind) or an interior object with an
// exact key set.
type node struct {
	leaf     bool
	kind     kind
	children map[string]node
}

func leaf(k kind) node            { return node{leaf: true, kind: k} }
func obj(ch map[string]node) node { return node{children: ch} }

// statsSchema is the documented /stats shape for a durable system
// (LogDir + GraphDir set): sections broker, gateway, eventlog, extra
// (ingest, dissemination, semweb incl. the persistent store).
var statsSchema = obj(map[string]node{
	"broker": obj(map[string]node{
		"published":        leaf(kNum),
		"deliveries":       leaf(kNum),
		"drops":            leaf(kNum),
		"subscriptions":    leaf(kNum),
		"dispatch_workers": leaf(kNum),
	}),
	"gateway": obj(map[string]node{
		"sse_clients":       leaf(kNum),
		"sse_streams_total": leaf(kNum),
		"sse_resumed_total": leaf(kNum),
		"sse_events_sent":   leaf(kNum),
		"sse_writes":        leaf(kNum),
		"sse_wakeups":       leaf(kNum),
		"slow_disconnects":  leaf(kNum),
		"published":         leaf(kNum),
		"publish_batches":   leaf(kNum),
		"publish_synced":    leaf(kNum),
		"queues":            leaf(kNum),
		"goodbyes": obj(map[string]node{
			"shutdown":      leaf(kNum),
			"slow_consumer": leaf(kNum),
			"replay_failed": leaf(kNum),
		}),
	}),
	"eventlog": obj(map[string]node{
		"segments":           leaf(kNum),
		"bytes":              leaf(kNum),
		"oldest_offset":      leaf(kNum),
		"next_offset":        leaf(kNum),
		"appended":           leaf(kNum),
		"fsyncs":             leaf(kNum),
		"fsync_failures":     leaf(kNum),
		"last_fsync_micros":  leaf(kNum),
		"fsync_ewma_micros":  leaf(kNum),
		"seal_failures":      leaf(kNum),
		"compacted_segments": leaf(kNum),
	}),
	"extra": obj(map[string]node{
		"ingest": obj(map[string]node{
			"fetched":    leaf(kNum),
			"annotated":  leaf(kNum),
			"failed":     leaf(kNum),
			"inferences": leaf(kNum),
		}),
		"ik_out_of_order": leaf(kNum),
		"dissemination": obj(map[string]node{
			"Received":  leaf(kNum),
			"Delivered": leaf(kObj),
			"Filtered":  leaf(kObj),
			"Errors":    leaf(kObj),
		}),
		"semweb": obj(map[string]node{
			"bulletin_triples": leaf(kNum),
			"materialized":     leaf(kNum),
			"decode_errors":    leaf(kNum),
			"orphans_swept":    leaf(kNum),
			"dropped":          leaf(kNum),
			"store": obj(map[string]node{
				"triples":          leaf(kNum),
				"dict_terms":       leaf(kNum),
				"base_run":         leaf(kNum),
				"mid_run":          leaf(kNum),
				"delta_run":        leaf(kNum),
				"wal_tail_records": leaf(kNum),
				"wal_tail_triples": leaf(kNum),
				"wal_segments":     leaf(kNum),
				"wal_bytes":        leaf(kNum),
				"appended":         leaf(kNum),
				"replayed_records": leaf(kNum),
				"replayed_triples": leaf(kNum),
			}),
		}),
	}),
})

// checkNode walks value against schema, reporting every violation.
func checkNode(path string, schema node, value any, report func(string)) {
	if schema.leaf {
		switch schema.kind {
		case kNum:
			if _, ok := value.(float64); !ok {
				report(fmt.Sprintf("%s: want number, got %T", path, value))
			}
		case kObj:
			if _, ok := value.(map[string]any); !ok {
				report(fmt.Sprintf("%s: want object, got %T", path, value))
			}
		}
		return
	}
	m, ok := value.(map[string]any)
	if !ok {
		report(fmt.Sprintf("%s: want object, got %T", path, value))
		return
	}
	var keys []string
	for k := range schema.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		child, present := m[k]
		if !present {
			report(fmt.Sprintf("%s.%s: missing", path, k))
			continue
		}
		checkNode(path+"."+k, schema.children[k], child, report)
	}
	for k := range m {
		if _, documented := schema.children[k]; !documented {
			report(fmt.Sprintf("%s.%s: undocumented key (add it to statsSchema and the docs, or remove it)", path, k))
		}
	}
}

func TestStatsGoldenSchema(t *testing.T) {
	cfg := smallConfig(5)
	cfg.LogDir = t.TempDir()
	cfg.GraphDir = t.TempDir()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mux, gw, err := sys.ServeMux()
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/stats: %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	checkNode("stats", statsSchema, doc, func(msg string) { t.Error(msg) })
}
