package main

import "testing"

func TestJudgeE2E(t *testing.T) {
	ops := e2eMetric{Name: "resolve_ops_per_s", Better: "higher", Bound: 0.25}
	lat := e2eMetric{Name: "resolve_p50_us", Better: "lower", Bound: 0.25}
	base := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 100}
	shift := func(v []float64, d float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] + d
		}
		return out
	}
	cases := []struct {
		name   string
		m      e2eMetric
		change []float64
		want   string
		won    int
	}{
		{"the same runs", ops, base, "unresolved", 0},
		{"ops up past the quartiles in every pair", ops, shift(base, 5), "better", 10},
		{"ops down within the bound", ops, shift(base, -20), "unresolved", 0},
		{"ops down past the bound", ops, shift(base, -30), "regression", 0},
		{"latency down in every pair", lat, shift(base, -5), "better", 10},
		{"latency up past the bound", lat, shift(base, 30), "regression", 0},
		{"a win inside the quartiles", ops, shift(base, 0.5), "unresolved", 10},
	}
	for _, tc := range cases {
		v := judgeE2E(tc.m, base, tc.change)
		if v.verdict != tc.want || v.won != tc.won {
			t.Errorf("%s: verdict %s, won %d; want %s, %d", tc.name, v.verdict, v.won, tc.want, tc.won)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.25); got != 1.25 {
		t.Errorf("quantile(0.25) of two = %v, want 1.25", got)
	}
	if got := quantile([]float64{10, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("quantile(0.5) of four = %v, want their median 2.5", got)
	}
}
