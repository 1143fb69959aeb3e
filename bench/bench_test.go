package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
)

// TestMain lets the test binary serve as the re-exec'd server child.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		if err := runChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	hash := func(seed int64) string {
		bodies := genBodies(seed, 200, pacedBatch, false)
		bodies = append(bodies, genBodies(seed, 50, syncBatch, true)...)
		return inputHash(bodies, genSchedule(seed, 200, pacedInterval), sparqlMix)
	}
	if hash(7) != hash(7) {
		t.Error("same seed, different input set")
	}
	if hash(7) == hash(8) {
		t.Error("different seeds, same input set")
	}
	if seq, ok := seqOf(genBodies(7, 3, 10, true)[2]); !ok || seq != 20 {
		t.Errorf("first seq of body 2 = %d, %v; want 20", seq, ok)
	}
}

// smoke runs every workload once, traced, at one-second phases, shared
// by the tests below.
var smoke struct {
	once    sync.Once
	results []*result
	err     error
}

func smokeResults(t *testing.T) []*result {
	t.Helper()
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	smoke.once.Do(func() {
		dir, err := os.MkdirTemp("", "bench-smoke-")
		if err != nil {
			smoke.err = err
			return
		}
		defer os.RemoveAll(dir)
		o := opts{seed: 3, seconds: 1, trace: true, outDir: dir}
		for _, w := range workloads {
			r, err := w.run(context.Background(), o)
			if err != nil {
				smoke.err = fmt.Errorf("%s: %w", w.name, err)
				return
			}
			smoke.results = append(smoke.results, r)
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.results
}

func TestWorkloadsPassTheirOracles(t *testing.T) {
	for _, r := range smokeResults(t) {
		if !r.correct() || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, oracle failures %v", r.Workload, r.Attempted, r.Failed, r.Failures)
		}
		if len(r.Layers) < 3 {
			t.Errorf("%s: traced run reported %d layers", r.Workload, len(r.Layers))
		}
	}
}

// TestBenchmarkJSONNamesWhatTheBinaryPrints keeps the contract file and
// the binary in step: the same workloads, and on every workload exactly
// the end_to_end and per_layer metrics the file lists, with the file's
// units, directions and bounds.
func TestBenchmarkJSONNamesWhatTheBinaryPrints(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		RunSeconds int    `json:"run_seconds"`
		Workloads  []decl `json:"workloads"`
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, binary default %d", file.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Errorf("BENCHMARK.json workloads %v, binary %v", names, have)
	}
	render := func(ds []decl) string {
		sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
		return fmt.Sprintf("%+v", ds)
	}
	for _, r := range smokeResults(t) {
		var e2e, layer []decl
		for _, m := range r.Metrics {
			if m.Slot != "" {
				e2e = append(e2e, decl{m.Slot, m.Unit, m.Better, m.Bound})
			}
		}
		for _, m := range r.PerLayer {
			if m.Slot != "" {
				layer = append(layer, decl{Name: m.Slot, Unit: m.Unit, Better: m.Better})
			}
		}
		if got, want := render(e2e), render(file.EndToEnd); got != want {
			t.Errorf("%s end_to_end:\n binary %s\n file   %s", r.Workload, got, want)
		}
		if got, want := render(layer), render(file.PerLayer); got != want {
			t.Errorf("%s per_layer:\n binary %s\n file   %s", r.Workload, got, want)
		}
	}
}
