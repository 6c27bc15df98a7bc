// Package metrics provides the statistics accumulators and table/CSV
// renderers used by every experiment in the evaluation harness: sample
// summaries (mean, standard deviation, percentiles), integer histograms,
// and the relative-delay-penalty helper from Figure 7(b).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates float64 observations. The zero value is empty and
// ready to use.
type Sample struct {
	values []float64
	sum    float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// AddN appends v with multiplicity n.
func (s *Sample) AddN(v float64, n int) {
	for i := 0; i < n; i++ {
		s.Add(v)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Std returns the population standard deviation.
func (s *Sample) Std() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank interpolation. Empty samples return 0.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// String summarizes the sample for logs.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p99=%.3f max=%.3f",
		s.N(), s.Mean(), s.Std(), s.Min(), s.Median(), s.Percentile(99), s.Max())
}

// RDP computes the relative delay penalty of Figure 7(b): the ratio of the
// baseline cost to the optimized cost. Zero optimized cost yields +Inf
// unless the baseline is also zero (then 1, no penalty).
func RDP(baseline, optimized float64) float64 {
	if optimized == 0 {
		if baseline == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return baseline / optimized
}

// Table renders aligned text tables matching the paper's row/series style.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
