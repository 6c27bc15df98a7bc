package main

// pairLoadgen judges a change end to end: it runs the loadgen
// (`bash bench/run.sh -workload W -seconds S`) in a base tree and a change
// tree in turn, N pairs per workload with the first tree alternating, and
// compares each end-to-end metric of BENCHMARK.json over the pairs. Each
// run lasts the base tree's BENCHMARK.json run_seconds, so both trees run
// as the benchmark runs them.
//
//	go run ./cmd/benchgate pair -loadgen cold_fanin,chunk_stream -n 10 <base-tree> <change-tree>
//
// Per workload and metric it prints both medians, the base's quartiles,
// the pairs the change won, and a verdict: regression when the change's
// median is worse than the base's by more than the metric's bound; better
// when the change won at least 9 in 10 pairs and the medians differ by
// more than the base's quartile distance; unresolved otherwise. It fails
// on a regression, on a run that is not correct, and on a change run with
// more failed ops than the base run of its pair.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// e2eMetric is one end-to-end metric of BENCHMARK.json.
type e2eMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the share of the base's median the change may be worse by
}

// loadgenRun is the JSON last line of one loadgen run.
type loadgenRun struct {
	Correct bool   `json:"correct"`
	Failed  uint64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func pairLoadgen(trees [2]string, workloads []string, n int) {
	var contract struct {
		RunSeconds int         `json:"run_seconds"`
		EndToEnd   []e2eMetric `json:"end_to_end"`
	}
	data, err := os.ReadFile(filepath.Join(trees[0], "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &contract)
	}
	if err == nil && contract.RunSeconds < 1 {
		err = fmt.Errorf("run_seconds is %d", contract.RunSeconds)
	}
	if err != nil {
		fatal(fmt.Errorf("the base tree's BENCHMARK.json: %v", err))
	}
	violations := 0
	for _, wl := range workloads {
		// runs[t][i] is tree t's run of pair i.
		var runs [2][]loadgenRun
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				t := (i + k) % 2 // alternate which tree goes first
				runs[t] = append(runs[t], runLoadgen(trees[t], wl, contract.RunSeconds))
			}
			fmt.Fprintf(os.Stderr, "benchgate pair: %s pair %d/%d done\n", wl, i+1, n)
		}
		for i := range runs[0] {
			for t, name := range [2]string{"base", "change"} {
				if !runs[t][i].Correct {
					fmt.Printf("%-14s pair %d: the %s run is not correct\n", wl, i+1, name)
					violations++
				}
			}
			if runs[1][i].Failed > runs[0][i].Failed {
				fmt.Printf("%-14s pair %d: the change failed %d ops, the base %d\n", wl, i+1, runs[1][i].Failed, runs[0][i].Failed)
				violations++
			}
		}
		fmt.Printf("%-14s %-18s %12s %12s %12s %12s %6s  %s\n", wl, "metric", "base p50", "change p50", "base q1", "base q3", "won", "verdict")
		for _, m := range contract.EndToEnd {
			base, change := valuesOf(runs[0], m.Name), valuesOf(runs[1], m.Name)
			v := judgeE2E(m, base, change)
			if v.verdict == "regression" {
				violations++
			}
			fmt.Printf("%-14s %-18s %12.5g %12.5g %12.5g %12.5g %3d/%-2d  %s\n", wl, m.Name,
				v.baseMed, v.changeMed, v.q1, v.q3, v.won, len(base), v.verdict)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "benchgate pair: %d violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("benchgate pair: ok")
}

// runLoadgen runs one workload in tree and returns its result. A run that
// fails its oracle still ends with its result line, which says so.
func runLoadgen(tree, workload string, seconds int) loadgenRun {
	cmd := exec.Command("bash", "bench/run.sh", "-workload", workload, "-seconds", strconv.Itoa(seconds))
	cmd.Dir, cmd.Stderr = tree, os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r loadgenRun
	if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
		fatal(fmt.Errorf("%s in %s: no result line (%v; exit %v)", workload, tree, jerr, err))
	}
	return r
}

func valuesOf(runs []loadgenRun, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// e2eVerdict is one metric's judgement over the pairs.
type e2eVerdict struct {
	baseMed, changeMed, q1, q3 float64
	won                        int // pairs in which the change was better
	verdict                    string
}

// judgeE2E compares base[i] with change[i], pair by pair and in the median.
func judgeE2E(m e2eMetric, base, change []float64) e2eVerdict {
	v := e2eVerdict{baseMed: quantile(base, 0.5), changeMed: quantile(change, 0.5), q1: quantile(base, 0.25), q3: quantile(base, 0.75)}
	// worse is how much worse than the base's median the change's is, as a
	// share of the base's.
	worse := (v.changeMed - v.baseMed) / math.Abs(v.baseMed)
	for i := range base {
		if m.Better == "higher" && change[i] > base[i] || m.Better != "higher" && change[i] < base[i] {
			v.won++
		}
	}
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		v.verdict = "regression"
	case worse < 0 && 10*v.won >= 9*len(base) && math.Abs(v.changeMed-v.baseMed) > v.q3-v.q1:
		v.verdict = "better"
	default:
		v.verdict = "unresolved"
	}
	return v
}

// quantile interpolates the q-quantile of v linearly between order
// statistics; q 0.5 is the median.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
