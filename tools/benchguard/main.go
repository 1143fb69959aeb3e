// Command benchguard compares `go test -bench` output against the
// committed BENCH_micro.json baseline and exits non-zero when any shared
// benchmark's ns/op regressed beyond the allowed percentage. CI runs it
// after the hot-path benchmark smoke so a codec or broker change cannot
// silently give back the performance this repo's perf PRs bought.
//
// Usage:
//
//	go test -run xxx -bench ... -benchmem ./... > bench.out
//	go run ./tools/benchguard -baseline BENCH_micro.json -max-regress 25 bench.out
//
// Only benchmarks present in both the baseline and the output are
// compared (the baseline also records experiment benchmarks the smoke
// does not rerun). The matched and missing counts are always printed —
// a baseline benchmark absent from the output is a gate that silently
// stopped gating — and -require <regexp> turns absence into failure for
// the benchmarks CI is expected to rerun. An empty intersection is
// always an error so a mistyped -bench pattern cannot pass vacuously.
//
// Load mode gates a cmd/dewsload report instead of micro-benchmarks:
//
//	go run ./tools/benchguard -load BENCH_load_ci.json -load-baseline BENCH_load_smoke.json
//
// It fails when the report's own oracles failed (passed=false), when
// steady throughput fell below -min-throughput-frac of the configured
// offered rate, or — when a baseline with an identical load config is
// given — when throughput dropped or end-to-end p99 grew by more than
// -max-regress percent versus that baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
)

type baseline struct {
	Note       string `json:"note"`
	Benchmarks []struct {
		Pkg      string  `json:"pkg"`
		Name     string  `json:"name"`
		NsPerOp  float64 `json:"ns_per_op"`
		BytesPer int64   `json:"bytes_per_op"`
		Allocs   int64   `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkAppend-8   1697505   627.7 ns/op   16 B/op   1 allocs/op
//
// The -<procs> suffix is optional (absent when GOMAXPROCS is 1).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// loadReport mirrors the parts of cmd/dewsload's dewsload/v1 report
// that the gate reads. Unknown fields are ignored so the gate tolerates
// report additions without a lockstep update.
type loadReport struct {
	Schema string         `json:"schema"`
	Mode   string         `json:"mode"`
	Config map[string]any `json:"config"`
	Passed bool           `json:"passed"`
	Steady *loadPhase     `json:"steady"`
	Chaos  *struct {
		Passed   bool     `json:"passed"`
		Failures []string `json:"failures"`
	} `json:"chaos"`
}

type loadPhase struct {
	ThroughputEPS float64 `json:"throughput_eps"`
	Subscribers   []struct {
		Kind string `json:"kind"`
		E2E  struct {
			P99ms float64 `json:"p99_ms"`
		} `json:"e2e"`
	} `json:"subscribers"`
}

// worstP99 is the slowest subscriber kind's end-to-end p99 — the
// number a "millions of users" claim lives or dies on.
func (p *loadPhase) worstP99() float64 {
	var worst float64
	for _, s := range p.Subscribers {
		if s.E2E.P99ms > worst {
			worst = s.E2E.P99ms
		}
	}
	return worst
}

func readLoadReport(path string) (*loadReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r loadReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if r.Schema != "dewsload/v1" {
		return nil, fmt.Errorf("%s: schema %q, want dewsload/v1", path, r.Schema)
	}
	return &r, nil
}

// gateLoad applies the load-report checks and exits on failure.
func gateLoad(reportPath, baselinePath string, minFrac, maxRegress float64) {
	rep, err := readLoadReport(reportPath)
	if err != nil {
		fatal(err)
	}
	if !rep.Passed {
		if rep.Chaos != nil && !rep.Chaos.Passed {
			fatal(fmt.Errorf("%s: chaos oracles failed: %v", reportPath, rep.Chaos.Failures))
		}
		fatal(fmt.Errorf("%s: report marked passed=false", reportPath))
	}
	if rep.Steady == nil {
		fatal(fmt.Errorf("%s: no steady phase to gate", reportPath))
	}
	rate, _ := rep.Config["rate_eps"].(float64)
	if rate > 0 {
		floor := minFrac * rate
		if rep.Steady.ThroughputEPS < floor {
			fatal(fmt.Errorf("steady throughput %.1f eps below %.0f%% of offered %.0f eps",
				rep.Steady.ThroughputEPS, 100*minFrac, rate))
		}
		fmt.Printf("load: throughput %.1f eps (offered %.0f, floor %.1f)  p99 %.1f ms  ok\n",
			rep.Steady.ThroughputEPS, rate, floor, rep.Steady.worstP99())
	}
	if baselinePath == "" {
		fmt.Printf("benchguard: %s passed (no load baseline)\n", reportPath)
		return
	}
	base, err := readLoadReport(baselinePath)
	if err != nil {
		fatal(err)
	}
	if !reflect.DeepEqual(rep.Config, base.Config) {
		// A different workload makes deltas meaningless; the absolute
		// checks above already ran, so warn rather than fail.
		fmt.Printf("benchguard: load configs differ between %s and %s — skipping baseline comparison\n",
			reportPath, baselinePath)
		return
	}
	if base.Steady == nil {
		fatal(fmt.Errorf("%s: baseline has no steady phase", baselinePath))
	}
	tputDrop := 100 * (base.Steady.ThroughputEPS - rep.Steady.ThroughputEPS) / base.Steady.ThroughputEPS
	fmt.Printf("load vs baseline: throughput %.1f -> %.1f eps (%+.1f%%)\n",
		base.Steady.ThroughputEPS, rep.Steady.ThroughputEPS, -tputDrop)
	if tputDrop > maxRegress {
		fatal(fmt.Errorf("steady throughput dropped %.1f%% vs %s (max %.0f%%)", tputDrop, baselinePath, maxRegress))
	}
	if baseP99, nowP99 := base.Steady.worstP99(), rep.Steady.worstP99(); baseP99 > 0 {
		grow := 100 * (nowP99 - baseP99) / baseP99
		fmt.Printf("load vs baseline: worst e2e p99 %.1f -> %.1f ms (%+.1f%%)\n", baseP99, nowP99, grow)
		if grow > maxRegress {
			fatal(fmt.Errorf("e2e p99 grew %.1f%% vs %s (max %.0f%%)", grow, baselinePath, maxRegress))
		}
	}
	fmt.Printf("benchguard: %s within %.0f%% of %s\n", reportPath, maxRegress, baselinePath)
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline BENCH_micro.json (required unless -load)")
	maxRegress := flag.Float64("max-regress", 25, "fail when ns/op (or load throughput/p99) regresses more than this percentage")
	loadPath := flag.String("load", "", "gate a cmd/dewsload BENCH_load report instead of bench output")
	loadBaseline := flag.String("load-baseline", "", "committed dewsload report to compare -load against (same config)")
	minTputFrac := flag.Float64("min-throughput-frac", 0.5, "with -load: fail when steady throughput is below this fraction of the offered rate")
	requirePat := flag.String("require", "", "regexp of baseline benchmark names that must appear in the bench output; a missing one fails the gate")
	flag.Parse()
	var require *regexp.Regexp
	if *requirePat != "" {
		var err error
		if require, err = regexp.Compile(*requirePat); err != nil {
			fatal(fmt.Errorf("bad -require regexp: %w", err))
		}
	}
	if *loadPath != "" {
		gateLoad(*loadPath, *loadBaseline, *minTputFrac, *maxRegress)
		return
	}
	if *baselinePath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchguard -baseline BENCH_micro.json [-max-regress pct] bench.out...")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}
	want := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		want[b.Name] = b.NsPerOp
	}

	got := make(map[string]float64)
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			m := benchLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			// Keep the fastest observation when a benchmark appears more
			// than once (CI runs each with -count=3): shared runners are
			// noisy in one direction only — a machine can be slowed by a
			// noisy neighbor but not sped up — so min-of-N is the least
			// noisy estimate of what the code can do, and the 25%
			// headroom absorbs residual hardware differences from the
			// committed baseline.
			if prev, ok := got[m[1]]; !ok || ns < prev {
				got[m[1]] = ns
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			fatal(err)
		}
	}

	if err := gateBench(os.Stdout, want, got, *maxRegress, require, *baselinePath); err != nil {
		fatal(err)
	}
}

// gateBench compares the measured ns/op against the baseline, printing
// one line per compared benchmark (in name order) plus the matched and
// missing counts. It fails on any regression beyond maxRegress, on an
// empty intersection, and on a missing baseline benchmark whose name
// matches require — a benchmark CI rebuilds every run must not be able
// to vanish from the gate by being renamed or skipped.
func gateBench(w io.Writer, want, got map[string]float64, maxRegress float64, require *regexp.Regexp, baselinePath string) error {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)

	compared, failed := 0, 0
	var missing []string
	for _, name := range names {
		baseNs := want[name]
		ns, ok := got[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		compared++
		delta := 100 * (ns - baseNs) / baseNs
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			failed++
		}
		fmt.Fprintf(w, "%-44s baseline %10.1f ns/op  now %10.1f ns/op  %+6.1f%%  %s\n",
			name, baseNs, ns, delta, status)
	}
	fmt.Fprintf(w, "benchguard: %d of %d baseline benchmarks matched, %d missing from the output\n",
		compared, len(want), len(missing))
	if len(missing) > 0 {
		fmt.Fprintf(w, "benchguard: missing: %v\n", missing)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark in the output matched the baseline — check the -bench pattern")
	}
	if require != nil {
		var gone []string
		for _, name := range missing {
			if require.MatchString(name) {
				gone = append(gone, name)
			}
		}
		if len(gone) > 0 {
			return fmt.Errorf("required benchmarks missing from the output: %v (renamed or skipped — the gate would silently stop gating them)", gone)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed more than %.0f%%", failed, compared, maxRegress)
	}
	fmt.Fprintf(w, "benchguard: %d benchmarks within %.0f%% of %s\n", compared, maxRegress, baselinePath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
