package main

// report.go reads `go test -bench` text into a report, the shape the
// committed BENCH_*.json baselines hold: the gate and pair read the text
// they judge through it, and `benchgate json` records it.
//
//	go test -run '^$' -bench Resolve -benchmem ./internal/live | go run ./cmd/benchgate json -out BENCH_resolve.json
//	go run ./cmd/benchgate json -in bench.txt -out BENCH_resolve.json
//	go run ./cmd/benchgate json -suite stretch -in bench_stretch.txt -out bench_stretch.json -same-metrics BENCH_stretch.json
//
// -same-metrics names a committed report whose custom metrics the new one
// must reproduce exactly — what a deterministic suite (the stretch
// evaluation) owes — and fails (exit 1) on any difference after writing
// the new report; timings and memory columns are not compared.
//
// Custom b.ReportMetric columns (rpcs/op, median-stretch/op, ...) are
// captured generically into each benchmark's "metrics" map; the memory
// columns keep their dedicated fields. When both BenchmarkDiscover and
// BenchmarkResolveHot appear in the input, the output includes
// derived.hot_speedup_vs_discover — the headline number for the
// location cache.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches the fixed prefix of one result row, e.g.
//
//	BenchmarkResolveHot-8   100   73.38 ns/op   0 B/op   0 allocs/op
//	BenchmarkStretchProximity10k   1   8.1e8 ns/op   1.000 median-stretch/op
//
// The -8 GOMAXPROCS suffix is stripped from the name; everything after
// ns/op is scanned by metricCol.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.eE+]+) ns/op(.*)$`)

// metricCol matches one "<value> <unit>" column after ns/op —
// b.ReportMetric output and the -benchmem B/op and allocs/op columns
// alike. A per-op unit is keyed without its "/op" ("allocs",
// "median-stretch"); any other ratio keeps its full name ("frames/write"),
// and so does a unit that is not a ratio at all ("scaling").
var metricCol = regexp.MustCompile(`([\d.eE+-]+) ([\w-]+(?:/[\w-]+)?)`)

var cpuLine = regexp.MustCompile(`^cpu: (.+)$`)

// result is one benchmark row.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	RPCsPerOp  float64            `json:"rpcs_per_op,omitempty"`
	BPerOp     float64            `json:"b_per_op"`
	AllocsOp   int64              `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Suite      string             `json:"suite"`
	Go         string             `json:"go"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []result           `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

// parseRow reads one result row, or reports false for any other line.
func parseRow(line string) (result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return result{}, false
	}
	r := result{Name: m[1]}
	r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
	for _, col := range metricCol.FindAllStringSubmatch(m[4], -1) {
		v, err := strconv.ParseFloat(col[1], 64)
		if err != nil {
			continue
		}
		unit := strings.TrimSuffix(col[2], "/op")
		switch unit {
		case "B":
			r.BPerOp = v
		case "allocs":
			r.AllocsOp = int64(v)
		case "rpcs":
			// Keep the dedicated field earlier reports used, and the
			// generic entry, so consumers of either shape keep working.
			r.RPCsPerOp = v
			fallthrough
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// parse reads `go test -bench` text, labelled suite. Text without a
// result row is an error: a gate or a record of nothing shows nothing.
func parse(src io.Reader, name, suite string) (report, error) {
	rep := report{Suite: suite, Go: runtime.Version()}
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			rep.CPU = m[1]
		} else if r, ok := parseRow(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("no benchmark lines found in %s", name)
	}
	return rep, nil
}

// parseFile parses the text in path, "-" for stdin.
func parseFile(path, suite string) (report, error) {
	if path == "-" {
		return parse(os.Stdin, path, suite)
	}
	f, err := os.Open(path)
	if err != nil {
		return report{}, err
	}
	defer f.Close()
	return parse(f, path, suite)
}

// record is `benchgate json`: it writes the report of bench text as
// indented JSON.
func record(args []string) {
	fs := flag.NewFlagSet("json", flag.ExitOnError)
	in := fs.String("in", "-", "bench output to read (- for stdin)")
	out := fs.String("out", "-", "JSON file to write (- for stdout)")
	suite := fs.String("suite", "resolve", "suite label recorded in the output")
	same := fs.String("same-metrics", "", "committed report whose custom metrics the output must equal")
	fs.Parse(args)

	rep, err := parseFile(*in, *suite)
	if err != nil {
		fatal(err)
	}
	ns := func(name string) float64 {
		for _, r := range rep.Benchmarks {
			if r.Name == name {
				return r.NsPerOp
			}
		}
		return 0
	}
	if cold, hot := ns("BenchmarkDiscover"), ns("BenchmarkResolveHot"); cold > 0 && hot > 0 {
		rep.Derived = map[string]float64{
			"hot_speedup_vs_discover": float64(int64(cold/hot*100+0.5)) / 100,
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	if *same == "" {
		return
	}
	base, err := load(*same)
	if err != nil {
		fatal(err)
	}
	if diffs := metricDiffs(base, rep); len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d figure(s) differ from %s:\n  %s\n", len(diffs), *same, strings.Join(diffs, "\n  "))
		os.Exit(1)
	}
	fmt.Printf("benchgate: every figure of %s reproduced\n", *same)
}

// metricDiffs lists, sorted, every custom metric that rep reports
// differently from base, lacks, or adds, and every benchmark either one
// lacks.
func metricDiffs(base, rep report) []string {
	fresh := make(map[string]result, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		fresh[r.Name] = r
	}
	var diffs []string
	for _, b := range base.Benchmarks {
		r, ok := fresh[b.Name]
		if !ok {
			diffs = append(diffs, b.Name+": missing")
			continue
		}
		delete(fresh, b.Name)
		for m, v := range b.Metrics {
			if got, ok := r.Metrics[m]; !ok || got != v {
				diffs = append(diffs, fmt.Sprintf("%s/%s: %v, committed %v", b.Name, m, got, v))
			}
		}
		for m, got := range r.Metrics {
			if _, ok := b.Metrics[m]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s/%s: %v, not committed", b.Name, m, got))
			}
		}
	}
	for name := range fresh {
		diffs = append(diffs, name+": not committed")
	}
	sort.Strings(diffs)
	return diffs
}
