package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-bucketed histogram of non-negative int64 samples
// (nanoseconds here). Each power of two is split into 128 linear
// sub-buckets, so a bucket is at most 1/128 of its lower edge wide and a
// quantile read from it is off by well under 1 %. Values below 256 are
// exact. Not safe for concurrent use: every driver owns its histograms
// and they are merged after the drivers stop.
type hist struct {
	counts []uint64
	n      uint64
	sum    float64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^42 ns (73 minutes) get their own bucket; anything
	// larger lands in the last one.
	histMaxShift = 42 - histSubBits - 1
	histBuckets  = (histMaxShift + 2) * histSub
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	shift := bits.Len64(u) - histSubBits - 1
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return (shift+1)*histSub + int(u>>uint(shift)) - histSub
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < 2*histSub {
		return float64(i), float64(i + 1)
	}
	shift := uint(i/histSub - 1)
	base := uint64(i%histSub+histSub) << shift
	return float64(base), float64(base + 1<<shift)
}

func (h *hist) record(v int64) {
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) count() uint64 { return h.n }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q <= 1), interpolating linearly by
// rank inside the bucket that holds it. 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// nWindows is how many equal windows the measure phase is cut into. A
// reported percentile is the median of the per-window percentiles, which
// keeps one noisy stretch from deciding the run's figure.
const nWindows = 3

// windowOf is the window an instant elapsed into a phase of length dur
// (0 <= elapsed < dur) falls in.
func windowOf(elapsed, dur time.Duration) int { return int(elapsed * nWindows / dur) }

// windows holds one histogram per measure window.
type windows [nWindows]hist

func (w *windows) merge(o *windows) {
	for i := range w {
		w[i].merge(&o[i])
	}
}

// quantile is the median over the non-empty windows of each window's
// q-quantile.
func (w *windows) quantile(q float64) float64 {
	var qs []float64
	for i := range w {
		if w[i].n > 0 {
			qs = append(qs, w[i].quantile(q))
		}
	}
	return median(qs)
}

func (w *windows) count() uint64 {
	var n uint64
	for i := range w {
		n += w[i].n
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
