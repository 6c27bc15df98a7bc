package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact is the q-quantile of sorted by the same rank rule hist uses.
func exact(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func lognormal(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		// Median 20 µs with a long tail: the shape of a resolve latency.
		out[i] = int64(20000 * math.Exp(rng.NormFloat64()))
	}
	return out
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := lognormal(rng, 200000)
	var h hist
	for _, v := range samples {
		h.record(v)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999} {
		got, want := h.quantile(q), exact(sorted, q)
		if err := math.Abs(got-want) / want; err > 0.01 {
			t.Errorf("q=%v: got %.1f, exact %.1f, error %.2f%% > 1%%", q, got, want, 100*err)
		}
	}
	if h.count() != uint64(len(samples)) {
		t.Errorf("count %d, want %d", h.count(), len(samples))
	}
}

func TestHistBucketsCoverTheirValues(t *testing.T) {
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<20 + 12345, 1 << 40} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d is outside its bucket [%v, %v)", v, lo, hi)
		}
		if v >= 256 && (hi-lo)/lo > 1.0/128 {
			t.Errorf("bucket of %d is %.3f%% wide", v, 100*(hi-lo)/lo)
		}
	}
}

// Drivers record apart and are merged afterwards: the merged histogram
// must be the one a single recorder would have built.
func TestHistMergeAcrossDrivers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := lognormal(rng, 40000)
	var one hist
	drivers := make([]hist, 4)
	for i, v := range samples {
		one.record(v)
		drivers[i%len(drivers)].record(v)
	}
	var merged hist
	for i := range drivers {
		merged.merge(&drivers[i])
	}
	if merged.count() != one.count() {
		t.Fatalf("merged count %d, want %d", merged.count(), one.count())
	}
	for _, q := range []float64{0.5, 0.99} {
		if merged.quantile(q) != one.quantile(q) {
			t.Errorf("q=%v: merged %v, single %v", q, merged.quantile(q), one.quantile(q))
		}
	}
}

func TestWindowsViews(t *testing.T) {
	var w windows
	for i, base := range []int64{1000, 3000, 2000} {
		for k := 0; k < 100; k++ {
			w[i].record(base)
		}
	}
	// Per-window medians are 1000, 3000 and 2000; the reported one is
	// their median.
	if got := w.quantile(0.5); math.Abs(got-2000) > 20 {
		t.Errorf("windowed median %v, want about 2000", got)
	}
	if got := w.count(); got != 300 {
		t.Errorf("count %d, want 300", got)
	}
	var empty windows
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty windows report %v, want 0", got)
	}
}
