package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestGateBenchReportsMissing: a baseline benchmark absent from the
// bench output must be counted and named, never silently skipped
// (regression: the gate used to pass as long as one benchmark matched,
// so renaming a hot-path benchmark un-gated it without a trace).
func TestGateBenchReportsMissing(t *testing.T) {
	want := map[string]measure{
		"BenchmarkAppend":  {ns: 100, allocs: 1},
		"BenchmarkPublish": {ns: 200, allocs: 1},
	}
	got := map[string]measure{"BenchmarkAppend": {ns: 90, allocs: 1}}
	var out strings.Builder
	if err := gateBench(&out, want, got, 25, nil, "BENCH.json"); err != nil {
		t.Fatalf("gateBench without -require: %v", err)
	}
	report := out.String()
	if !strings.Contains(report, "1 of 2 baseline benchmarks matched, 1 missing") {
		t.Errorf("report lacks matched/missing counts:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkPublish") {
		t.Errorf("report does not name the missing benchmark:\n%s", report)
	}
}

// TestGateBenchRequire: with -require, a matching baseline benchmark
// missing from the output fails the gate outright.
func TestGateBenchRequire(t *testing.T) {
	want := map[string]measure{
		"BenchmarkAppend":  {ns: 100, allocs: 1},
		"BenchmarkPublish": {ns: 200, allocs: 1},
	}
	got := map[string]measure{"BenchmarkAppend": {ns: 90, allocs: 1}}
	re := regexp.MustCompile(`^BenchmarkPublish$`)
	var out strings.Builder
	err := gateBench(&out, want, got, 25, re, "BENCH.json")
	if err == nil {
		t.Fatal("gateBench passed with a required benchmark missing")
	}
	if !strings.Contains(err.Error(), "BenchmarkPublish") {
		t.Errorf("error does not name the missing benchmark: %v", err)
	}

	// A required benchmark that is present keeps the gate green.
	got["BenchmarkPublish"] = measure{ns: 210, allocs: 1}
	out.Reset()
	if err := gateBench(&out, want, got, 25, re, "BENCH.json"); err != nil {
		t.Fatalf("gateBench with required benchmark present: %v", err)
	}
}

// TestGateBenchRegression: the regression check itself still fires.
func TestGateBenchRegression(t *testing.T) {
	want := map[string]measure{"BenchmarkAppend": {ns: 100, allocs: 1}}
	got := map[string]measure{"BenchmarkAppend": {ns: 140, allocs: 1}}
	var out strings.Builder
	if err := gateBench(&out, want, got, 25, nil, "BENCH.json"); err == nil {
		t.Fatal("gateBench passed a 40%% regression with max 25%%")
	}
	// Empty intersection is an error even without -require.
	if err := gateBench(&out, want, map[string]measure{}, 25, nil, "BENCH.json"); err == nil {
		t.Fatal("gateBench passed an empty intersection")
	}
}

// TestGateBenchAllocs: allocs/op may exceed the baseline row by at most
// max(2, 1%) even when ns/op is well inside its bound, and a bench
// output without allocation counts cannot pass.
func TestGateBenchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, allocs int64
		pass         bool
	}{
		{"fewer", 60, 40, true},
		{"equal", 60, 60, true},
		{"two over a small count", 1, 3, true},
		{"three over a small count", 1, 4, false},
		{"one percent over a large count", 150000, 151500, true},
		{"past one percent of a large count", 150000, 151501, false},
		{"no allocs column", 1, -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[string]measure{"BenchmarkAppend": {ns: 100, allocs: tc.base}}
			got := map[string]measure{"BenchmarkAppend": {ns: 90, allocs: tc.allocs}}
			var out strings.Builder
			err := gateBench(&out, want, got, 25, nil, "BENCH.json")
			if tc.pass && err != nil {
				t.Errorf("%d allocs/op against a baseline of %d failed: %v\n%s", tc.allocs, tc.base, err, out.String())
			}
			if !tc.pass && err == nil {
				t.Errorf("%d allocs/op against a baseline of %d passed\n%s", tc.allocs, tc.base, out.String())
			}
		})
	}
}

// TestCheckToolchain: a baseline from another Go minor version, or one
// that names none, is refused; a patch-level difference is not.
func TestCheckToolchain(t *testing.T) {
	for _, tc := range []struct {
		baseline, running string
		ok                bool
	}{
		{"go1.24.0 linux/amd64", "go1.24.0", true},
		{"go1.24.0 linux/amd64", "go1.24.3", true},
		{"go1.24.0 linux/amd64", "go1.22.5", false},
		{"go1.24.0 linux/amd64", "go1.25rc1", false},
		{"go1.2 linux/amd64", "go1.24.0", false},
		{"", "go1.24.0", false},
	} {
		err := checkToolchain(tc.baseline, tc.running)
		if (err == nil) != tc.ok {
			t.Errorf("checkToolchain(%q, %q) = %v, want ok=%v", tc.baseline, tc.running, err, tc.ok)
		}
	}
}
