package main

// pair judges a change's timings by alternating runs on one host, not by
// committed baselines taken on another: it builds the gate's micro
// benchmarks from a base tree and a change tree, runs the two builds in
// turn N times, and compares each benchmark run by run.
//
//	go run ./cmd/benchgate pair -n 10 <base-tree> <change-tree>
//
// With -loadgen it runs the loadgen's workloads instead (loadgen.go).
//
// A benchmark regresses when a one-sided sign test finds the change
// slower (p < 0.05) and its median slowdown over the pairs exceeds
// pairBound. Each run lasts pairBenchtime per benchmark. Allocations stay a hard bound: the change may not
// allocate more per op than the base in any run. A benchmark present in
// one tree only is listed and not judged.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// pairSuites are the gate's micro benchmarks, by package.
var pairSuites = []struct{ pkg, bench string }{
	{"./internal/live", `^BenchmarkResolveHot|^BenchmarkPublishIngestParallel$|^BenchmarkServePipelinedTCP$|^BenchmarkResolveColdMiss$|^BenchmarkDiscover$|^BenchmarkRPCPooledTCP$|^BenchmarkRPCRawTCP$`},
	{"./internal/loccache", `^BenchmarkLookupHitParallel$|^BenchmarkPutEvict$`},
}

const (
	pairBound     = 0.25 // the median slowdown a significant regression may not exceed
	pairBenchtime = "200ms"
)

func pair(args []string) {
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	n := fs.Int("n", 10, "pairs of runs")
	loadgen := fs.String("loadgen", "", "comma-separated loadgen workloads to pair instead of the micro benchmarks")
	fs.Parse(args)
	if fs.NArg() != 2 || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate pair [-n N] [-loadgen W[,W...]] <base-tree> <change-tree>")
		os.Exit(2)
	}
	trees := [2]string{fs.Arg(0), fs.Arg(1)}
	if *loadgen != "" {
		pairLoadgen(trees, strings.Split(*loadgen, ","), *n)
		return
	}
	dir, err := os.MkdirTemp("", "benchgate-pair")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	// bins[t][i] is tree t's test binary of pairSuites[i].
	var bins [2][]string
	for t, tree := range trees {
		for i, s := range pairSuites {
			bin := filepath.Join(dir, fmt.Sprintf("%d-%d.test", t, i))
			build := exec.Command("go", "test", "-c", "-o", bin, s.pkg)
			build.Dir, build.Stderr = tree, os.Stderr
			if err := build.Run(); err != nil {
				fatal(fmt.Errorf("build %s in %s: %v", s.pkg, tree, err))
			}
			bins[t] = append(bins[t], bin)
		}
	}

	// runs[t][name] holds tree t's rows, one per round.
	runs := [2]map[string][]result{{}, {}}
	for round := 0; round < *n; round++ {
		for k := 0; k < 2; k++ {
			t := (round + k) % 2 // alternate which tree goes first
			for i, s := range pairSuites {
				cmd := exec.Command(bins[t][i], "-test.run", "^$", "-test.bench", s.bench,
					"-test.benchtime", pairBenchtime, "-test.benchmem", "-test.timeout", "10m")
				cmd.Dir = filepath.Join(trees[t], s.pkg)
				out, err := cmd.Output()
				if err != nil {
					fatal(fmt.Errorf("run %s in %s: %v\n%s", s.pkg, trees[t], err, out))
				}
				// A tree without a row is judged below, as one tree only.
				rep, _ := parse(bytes.NewReader(out), s.pkg, "pair")
				for _, r := range rep.Benchmarks {
					runs[t][r.Name] = append(runs[t][r.Name], r)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "benchgate pair: round %d/%d done\n", round+1, *n)
	}
	if judge(runs) > 0 {
		os.Exit(1)
	}
	fmt.Println("benchgate pair: ok")
}

// judge prints one line per benchmark and returns the violations.
func judge(runs [2]map[string][]result) (violations int) {
	var names []string
	for name := range runs[0] {
		names = append(names, name)
	}
	for name := range runs[1] {
		if _, ok := runs[0][name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-36s %12s %12s %8s %7s %7s  %s\n", "benchmark", "base ns/op", "new ns/op", "median", "slower", "p", "allocs")
	for _, name := range names {
		base, change := runs[0][name], runs[1][name]
		if len(base) == 0 || len(change) == 0 || len(base) != len(change) {
			fmt.Printf("%-36s in one tree only, or missing a run: not judged\n", name)
			continue
		}
		ratios := make([]float64, len(base))
		slower := 0
		var maxBase, maxChange int64
		for i := range base {
			ratios[i] = change[i].NsPerOp / base[i].NsPerOp
			if ratios[i] > 1 {
				slower++
			}
			maxBase = max(maxBase, base[i].AllocsOp)
			maxChange = max(maxChange, change[i].AllocsOp)
		}
		pairs := len(ratios)
		pSlower, pFaster := signTail(pairs, slower), signTail(pairs, pairs-slower)
		med := quantile(ratios, 0.5) - 1
		verdict := ""
		switch {
		case pSlower < 0.05 && med > pairBound:
			verdict = "REGRESSION"
			violations++
		case pSlower < 0.05:
			verdict = "slower, within the bound"
		case pFaster < 0.05:
			verdict = "faster"
		}
		if maxChange > maxBase {
			verdict += " ALLOC-INCREASE"
			violations++
		}
		fmt.Printf("%-36s %12.1f %12.1f %+7.1f%% %3d/%-3d %7.4f  %d→%d %s\n", name,
			quantile(nsOf(base), 0.5), quantile(nsOf(change), 0.5), 100*med, slower, pairs, min(pSlower, pFaster),
			maxBase, maxChange, strings.TrimSpace(verdict))
	}
	return violations
}

func nsOf(s []result) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = s[i].NsPerOp
	}
	return out
}

// signTail is the sign test's one-sided p-value: the chance of k or more
// of n fair coin flips landing one way, P(X >= k) for X ~ Binomial(n, 1/2).
func signTail(n, k int) float64 {
	p := 0.0
	for i := k; i <= n; i++ {
		p += binom(n, i)
	}
	return p / math.Pow(2, float64(n))
}

func binom(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}
