// Command benchjson converts `go test -bench` text output into a small
// machine-readable JSON document, so benchmark results can be committed
// (BENCH_resolve.json, BENCH_stretch.json) and diffed across PRs or
// uploaded as CI artifacts without scraping log text.
//
// Usage:
//
//	go test -run '^$' -bench Resolve -benchmem ./internal/live | go run ./cmd/benchjson -out BENCH_resolve.json
//	go run ./cmd/benchjson -in bench.txt -out BENCH_resolve.json
//
// Custom b.ReportMetric columns (rpcs/op, median-stretch/op, ...) are
// captured generically into each benchmark's "metrics" map; the memory
// columns keep their dedicated fields. When both BenchmarkDiscover and
// BenchmarkResolveHot appear in the input, the output includes
// derived.hot_speedup_vs_discover — the headline number for the
// location cache.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
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

func main() {
	in := flag.String("in", "-", "bench output to read (- for stdin)")
	out := flag.String("out", "-", "JSON file to write (- for stdout)")
	suite := flag.String("suite", "resolve", "suite label recorded in the output")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}

	rep := report{Suite: *suite, Go: runtime.Version()}
	cpuLine := regexp.MustCompile(`^cpu: (.+)$`)
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			rep.CPU = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
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
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *in))
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
			"hot_speedup_vs_discover": round2(cold / hot),
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
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
