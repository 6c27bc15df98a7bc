// Command bench is bristle-loadgen: it boots a cluster of live nodes over
// loopback TCP in bristled's configuration, drives it through live's
// exported API with four workloads, checks every answer against a
// bind-history oracle and prints one line per (workload, metric) and a
// JSON result. README.md in this directory describes the workloads, the
// metrics and how to read the output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// clusters is how many clusters an untraced run sets up and measures, one
// after the other; every reported figure, set-up time too, is the median
// over them.
const clusters = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
	outDir   string
}

func main() {
	var o options
	var trace string
	flag.StringVar(&o.workload, "workload", "", "run this workload only and end with the one-line JSON result (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measure phase")
	flag.StringVar(&trace, "trace", "0", "1: traced run, per-layer metrics and trace.<workload>.jsonl; 0: untraced run, end-to-end metrics; with all workloads, 1 runs both")
	flag.IntVar(&o.repeat, "repeat", 1, "run the untraced set this many times and compare the runs against the bounds")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result.json and trace files")
	flag.Parse()
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1, got %q\n", trace)
		os.Exit(2)
	}
	if o.seconds < 1 || o.repeat < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := realMain(context.Background(), o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, o options, w io.Writer) error {
	printEnvironment(w)
	if o.workload != "" {
		wl := findWorkload(o.workload)
		if wl == nil {
			return fmt.Errorf("no workload %q", o.workload)
		}
		var out *outcome
		var err error
		if o.trace {
			out, err = runTraced(ctx, wl, o, nil)
		} else {
			out, err = runUntraced(ctx, wl, o)
		}
		if err != nil {
			return err
		}
		printOutcome(w, out)
		// The contract's result: the last line of standard output.
		fmt.Fprintln(w, string(contractJSON(out)))
		return verdictOf(out)
	}

	var failed error
	report := func(out *outcome) *outcome {
		printOutcome(w, out)
		if err := verdictOf(out); err != nil && failed == nil {
			failed = err
		}
		return out
	}
	var sets [][]*outcome
	for rep := 0; rep < o.repeat; rep++ {
		var set []*outcome
		for _, wl := range workloads {
			out, err := runUntraced(ctx, wl, o)
			if err != nil {
				return err
			}
			set = append(set, report(out))
		}
		sets = append(sets, set)
	}
	all := sets[0]
	if o.trace {
		quiet, err := quietRungs(ctx, o.seed, rungTime(o.seconds))
		if err != nil {
			return err
		}
		for _, wl := range workloads {
			out, err := runTraced(ctx, wl, o, quiet)
			if err != nil {
				return err
			}
			all = append(all, report(out))
		}
	}
	if err := writeResult(o.outDir, all); err != nil {
		return err
	}
	if o.repeat > 1 {
		if err := compare(w, sets); err != nil && failed == nil {
			failed = err
		}
	}
	return failed
}

// rungTime is how long each stand-alone rung runs: a fixed share of the
// measure phase, so shortening one shortens the other.
func rungTime(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 48
}

// runUntraced measures the workload with tracing off on clusters fresh
// clusters in turn, each for its share of the measure phase, and returns
// the end-to-end figures: per figure, the median over the clusters. What a
// contended lock or a cache line does to a cluster it does for as long as
// the cluster lives; only a new cluster draws again.
func runUntraced(ctx context.Context, wl *workload, o options) (*outcome, error) {
	var outs []*outcome
	for i := 0; i < clusters; i++ {
		t0 := time.Now()
		r, err := setUp(ctx, wl, o.seed, false)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0)
		p := r.measure(ctx, time.Duration(o.seconds)*time.Second/clusters)
		outs = append(outs, r.endToEndValues(p, setup))
		r.close()
	}
	return combine(outs), nil
}

// runTraced measures the workload with the ladder on, writes its spans
// and returns the per-layer figures. quiet are the stand-alone rungs'
// figures if they were already measured.
func runTraced(ctx context.Context, wl *workload, o options, quiet values) (*outcome, error) {
	if quiet == nil {
		var err error
		if quiet, err = quietRungs(ctx, o.seed, rungTime(o.seconds)); err != nil {
			return nil, err
		}
	}
	r, err := setUp(ctx, wl, o.seed, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	p := r.measure(ctx, time.Duration(o.seconds)*time.Second)
	out := r.perLayerValues(p, quiet)
	path := filepath.Join(o.outDir, "trace."+wl.name+".jsonl")
	if err := writeTrace(path, r.trace.recorders); err != nil {
		return nil, err
	}
	return out, nil
}

// verdictOf is the oracle's word on a run: an error if any op failed.
func verdictOf(out *outcome) error {
	if out.failed == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d ops failed; first: %v", out.workload, out.failed, out.attempted, out.firstErr)
}

// ---- output ----

func printEnvironment(w io.Writer) {
	fmt.Fprintf(w, "# bristle-loadgen: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Fprintln(w, "# one process; every frame crosses the host loopback (127.0.0.1), never a real link")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func defsOf(out *outcome) []metricDef {
	if out.traced {
		return perLayer
	}
	return endToEnd
}

// printOutcome prints one line per metric: workload, name, value, unit
// and the sample count behind it.
func printOutcome(w io.Writer, out *outcome) {
	for _, d := range defsOf(out) {
		v := out.vals[d.name]
		fmt.Fprintf(w, "%-14s %-38s %16.4f %-6s n=%d\n", out.workload, d.name, v.v, d.unit, v.n)
	}
	if !out.traced {
		fmt.Fprintf(w, "%-14s %-38s %16.4g %-6s n=%d\n", out.workload, "fail_ratio", ratio(out.failed, out.attempted), "1", out.attempted)
	}
	if len(out.ladder) > 0 {
		fmt.Fprintf(w, "%-14s ladder: rung < parent, n, p50 us, self p50 us (%d spans dropped)\n", out.workload, out.dropped)
		for _, s := range out.ladder {
			fmt.Fprintf(w, "%-14s   %-22s < %-14s n=%-7d %12.3f %12.3f\n", out.workload, s.name, s.parent,
				s.dur.count(), s.dur.quantile(0.5)/1e3, selfTime(out.ladder, s)/1e3)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func resultOf(out *outcome) jsonResult {
	res := jsonResult{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, d := range defsOf(out) {
		v := out.vals[d.name].v
		if !finite(v) {
			v = 0
			res.Correct = false
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return res
}

func contractJSON(out *outcome) []byte {
	b, err := json.Marshal(resultOf(out))
	if err != nil {
		panic(err) // plain structs of finite numbers always marshal
	}
	return b
}

// writeResult writes every outcome of an all-workloads run as one JSON
// document.
func writeResult(dir string, outs []*outcome) error {
	type entry struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		jsonResult
	}
	doc := struct {
		NumCPU     int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Go         string  `json:"go"`
		CPU        string  `json:"cpu"`
		Network    string  `json:"network"`
		Runs       []entry `json:"runs"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), "host loopback", nil}
	for _, out := range outs {
		doc.Runs = append(doc.Runs, entry{out.workload, out.traced, resultOf(out)})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644)
}

// compare prints, per workload and end-to-end metric, the first and last
// set's values, how much worse the last is than the first as a share of
// the first, and the bound; it fails if any pair is further apart than
// its bound in either direction.
func compare(w io.Writer, sets [][]*outcome) error {
	first, last := sets[0], sets[len(sets)-1]
	var failed error
	fmt.Fprintln(w, "# repeat: workload metric first last difference bound")
	for i := range first {
		for _, d := range endToEnd {
			a, b := first[i].vals[d.name].v, last[i].vals[d.name].v
			diff := math.Abs(b-a) / math.Abs(a)
			mark := ""
			if !(diff <= d.bound) {
				mark = "  OUT OF BOUND"
				if failed == nil {
					failed = fmt.Errorf("repeat: %s %s differs by %.1f%%, bound %.0f%%", first[i].workload, d.name, 100*diff, 100*d.bound)
				}
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", first[i].workload, d.name, a, b, 100*diff, 100*d.bound, mark)
		}
	}
	return failed
}
