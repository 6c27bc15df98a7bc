package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("zero Sample not neutral")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Std() != 2 { // classic example: population std = 2
		t.Fatalf("Std = %v, want 2", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %v", s.Sum())
	}
}

func TestSampleAddN(t *testing.T) {
	var s Sample
	s.AddN(3, 4)
	if s.N() != 4 || s.Mean() != 3 {
		t.Fatalf("AddN wrong: n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Percentile(25); math.Abs(got-25.75) > 1e-9 {
		t.Errorf("p25 = %v, want 25.75", got)
	}
}

func TestPercentileAfterAddReSorts(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(1)
	_ = s.Median() // forces sort
	s.Add(0.5)     // must invalidate the sort
	if got := s.Min(); got != 0.5 {
		t.Fatalf("Min after re-add = %v", got)
	}
	if got := s.Percentile(0); got != 0.5 {
		t.Fatalf("p0 after re-add = %v", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var s Sample
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return s.Percentile(p1) <= s.Percentile(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanWithinMinMaxProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e15 {
				s.Add(v)
			}
		}
		if s.N() == 0 {
			return true
		}
		return s.Min() <= s.Mean()+1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRDP(t *testing.T) {
	if got := RDP(30, 10); got != 3 {
		t.Errorf("RDP(30,10) = %v", got)
	}
	if got := RDP(0, 0); got != 1 {
		t.Errorf("RDP(0,0) = %v, want 1", got)
	}
	if !math.IsInf(RDP(5, 0), 1) {
		t.Error("RDP(5,0) should be +Inf")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("M/N (%)", "hops", "rdp")
	tb.AddRow(10, 5.25, 1.0)
	tb.AddRow(80, 25.0, 3.125)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "M/N (%)") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "5.250") {
		t.Fatalf("float not formatted: %q", lines[2])
	}
	if !strings.Contains(lines[3], "25") {
		t.Fatalf("integral float not compact: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	want := "a,b\n1,2.500\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(2)
	out := s.String()
	if !strings.Contains(out, "n=2") || !strings.Contains(out, "mean=1.500") {
		t.Fatalf("String() = %q", out)
	}
}
