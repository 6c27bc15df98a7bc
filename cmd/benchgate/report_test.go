package main

import (
	"slices"
	"testing"
)

func TestMetricDiffs(t *testing.T) {
	base := report{Benchmarks: []result{
		{Name: "BenchmarkA", NsPerOp: 100, Metrics: map[string]float64{"median-stretch": 1.555, "p90-stretch": 3}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"mean-cost": 14.83}},
	}}
	same := report{Benchmarks: []result{
		{Name: "BenchmarkB", NsPerOp: 7, Metrics: map[string]float64{"mean-cost": 14.83}},
		{Name: "BenchmarkA", NsPerOp: 900, BPerOp: 64, Metrics: map[string]float64{"median-stretch": 1.555, "p90-stretch": 3}},
	}}
	if d := metricDiffs(base, same); d != nil {
		t.Fatalf("the same figures at other timings: %v, want no difference", d)
	}
	changed := report{Benchmarks: []result{
		{Name: "BenchmarkA", Metrics: map[string]float64{"median-stretch": 1.556, "mean-cost": 2}},
		{Name: "BenchmarkC"},
	}}
	want := []string{
		"BenchmarkA/mean-cost: 2, not committed",
		"BenchmarkA/median-stretch: 1.556, committed 1.555",
		"BenchmarkA/p90-stretch: 0, committed 3",
		"BenchmarkB: missing",
		"BenchmarkC: not committed",
	}
	if d := metricDiffs(base, changed); !slices.Equal(d, want) {
		t.Fatalf("metricDiffs = %q, want %q", d, want)
	}
}
