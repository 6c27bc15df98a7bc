// Command benchgate is the one tool for `go test -bench` output. Its gate
// mode compares fresh output against committed baselines and fails (exit
// 1) when the hot paths regress: a benchmark present in both may not
// slow down by more than -max-regress-pct in ns/op, and may never gain
// allocations. Benchmarks named in -zero-alloc must additionally appear
// in the fresh output with exactly 0 allocs/op — the zero-allocation
// guarantees of the serve and resolve paths as an enforced gate rather
// than a comment.
//
// Beyond relative comparisons, -max-metric and -min-metric assert
// absolute bounds on custom b.ReportMetric columns, e.g.
//
//	-max-metric 'BenchmarkStretchProximity10k/median-stretch=1.5'
//
// fails unless that benchmark reports median-stretch/op ≤ 1.5 (and
// -min-metric symmetrically enforces a floor — used to keep the
// no-proximity baseline honest). A named benchmark or metric missing
// from the fresh output is itself a violation.
//
// Usage:
//
//	go run ./cmd/benchgate -new bench_gate.txt \
//	    -baselines BENCH_resolve.json,BENCH_publish.json \
//	    -zero-alloc BenchmarkResolveHotParallel,BenchmarkPublishIngestParallel
//	go run ./cmd/benchgate json -suite publish -in bench.txt -out BENCH_publish.json
//	go run ./cmd/benchgate pair -n 10 <base-tree> <change-tree>
//	go run ./cmd/benchgate pair -loadgen cold_fanin -n 10 <base-tree> <change-tree>
//
// Baselines are recorded by `make bench` through `benchgate json`
// (report.go); the gate is wired as `make bench-gate` and runs in CI's
// bench-smoke job. Timings are better judged by `benchgate pair`
// (pair.go), which alternates a base tree's build and a change tree's on
// one host; `benchgate pair -loadgen` (loadgen.go) alternates their
// loadgen runs and judges the end-to-end metrics of BENCHMARK.json. A baseline file
// that does not exist yet is skipped with a warning so a suite's first
// recorded run can bootstrap itself; -ignore-allocs drops the
// allocation comparison for suites (like the stretch evaluation) whose
// per-op allocations are workload bookkeeping, not a guarded hot path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// bound is one parsed -max-metric/-min-metric spec:
// Bench/metric=value with ceiling or floor semantics.
type bound struct {
	bench, metric string
	value         float64
	ceiling       bool
}

func parseBounds(spec string, ceiling bool) ([]bound, error) {
	if spec == "" {
		return nil, nil
	}
	var out []bound
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		path, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("bound %q: want Bench/metric=value", item)
		}
		bench, metric, ok := strings.Cut(path, "/")
		if !ok || bench == "" || metric == "" {
			return nil, fmt.Errorf("bound %q: want Bench/metric=value", item)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bound %q: %v", item, err)
		}
		out = append(out, bound{bench: bench, metric: metric, value: v, ceiling: ceiling})
	}
	return out, nil
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pair":
			pair(os.Args[2:])
			return
		case "json":
			record(os.Args[2:])
			return
		}
	}
	newPath := flag.String("new", "", "fresh `go test -bench` output to gate (- for stdin)")
	baselines := flag.String("baselines", "", "comma-separated committed baseline reports")
	maxRegress := flag.Float64("max-regress-pct", 20, "max allowed ns/op regression, percent")
	zeroAlloc := flag.String("zero-alloc", "", "comma-separated benchmarks that must report 0 allocs/op")
	ignoreAllocs := flag.Bool("ignore-allocs", false, "skip the allocs/op increase check")
	maxMetric := flag.String("max-metric", "", "comma-separated Bench/metric=ceiling bounds on fresh metrics")
	minMetric := flag.String("min-metric", "", "comma-separated Bench/metric=floor bounds on fresh metrics")
	flag.Parse()
	if *newPath == "" || *baselines == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new and -baselines are required")
		os.Exit(2)
	}
	bounds, err := parseBounds(*maxMetric, true)
	if err != nil {
		fatal(err)
	}
	floors, err := parseBounds(*minMetric, false)
	if err != nil {
		fatal(err)
	}
	bounds = append(bounds, floors...)

	fresh, err := parseFile(*newPath, "gate")
	if err != nil {
		fatal(err)
	}
	got := make(map[string]result, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		got[b.Name] = b
	}

	base := make(map[string]result)
	for _, path := range strings.Split(*baselines, ",") {
		path = strings.TrimSpace(path)
		rep, err := load(path)
		if os.IsNotExist(err) {
			// First run of a new suite: nothing to compare against yet.
			// `make bench` records the baseline; absolute -max-metric /
			// -min-metric bounds still apply below.
			fmt.Printf("benchgate: baseline %s missing, skipping (record it with make bench)\n", path)
			continue
		}
		if err != nil {
			fatal(err)
		}
		for _, b := range rep.Benchmarks {
			base[b.Name] = b
		}
	}

	violations := 0
	fmt.Printf("%-36s %14s %14s %9s %s\n", "benchmark", "base ns/op", "new ns/op", "Δ%", "allocs")
	for _, nb := range fresh.Benchmarks {
		bb, ok := base[nb.Name]
		if !ok {
			fmt.Printf("%-36s %14s %14.1f %9s %d (new)\n", nb.Name, "-", nb.NsPerOp, "-", nb.AllocsOp)
			continue
		}
		delta := (nb.NsPerOp - bb.NsPerOp) / bb.NsPerOp * 100
		verdict := ""
		if delta > *maxRegress {
			verdict = "  REGRESSION"
			violations++
		}
		if !*ignoreAllocs && nb.AllocsOp > bb.AllocsOp {
			verdict += "  ALLOC-INCREASE"
			violations++
		}
		fmt.Printf("%-36s %14.1f %14.1f %+8.1f%% %d→%d%s\n",
			nb.Name, bb.NsPerOp, nb.NsPerOp, delta, bb.AllocsOp, nb.AllocsOp, verdict)
	}
	if *zeroAlloc != "" {
		for _, name := range strings.Split(*zeroAlloc, ",") {
			name = strings.TrimSpace(name)
			nb, ok := got[name]
			switch {
			case !ok:
				fmt.Printf("%-36s missing from fresh report  ZERO-ALLOC-UNVERIFIED\n", name)
				violations++
			case nb.AllocsOp != 0:
				fmt.Printf("%-36s %d allocs/op  ZERO-ALLOC-VIOLATION\n", name, nb.AllocsOp)
				violations++
			}
		}
	}
	for _, bd := range bounds {
		kind, cmp := "ceiling", "≤"
		if !bd.ceiling {
			kind, cmp = "floor", "≥"
		}
		nb, ok := got[bd.bench]
		if !ok {
			fmt.Printf("%s/%s missing benchmark  METRIC-%s-UNVERIFIED\n", bd.bench, bd.metric, strings.ToUpper(kind))
			violations++
			continue
		}
		v, ok := nb.Metrics[bd.metric]
		if !ok {
			fmt.Printf("%s/%s missing metric  METRIC-%s-UNVERIFIED\n", bd.bench, bd.metric, strings.ToUpper(kind))
			violations++
			continue
		}
		verdict := "ok"
		if (bd.ceiling && v > bd.value) || (!bd.ceiling && v < bd.value) {
			verdict = "METRIC-" + strings.ToUpper(kind) + "-VIOLATION"
			violations++
		}
		fmt.Printf("%s/%s = %.3f (%s %s %.3f)  %s\n", bd.bench, bd.metric, v, kind, cmp, bd.value, verdict)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}
