package metrics

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	if got := c.Get("missing"); got != 0 {
		t.Fatalf("absent counter = %d, want 0", got)
	}
	c.Inc("a")
	c.Counter("a").Add(2)
	c.Inc("b")
	if got := c.Get("a"); got != 3 {
		t.Fatalf("a = %d, want 3", got)
	}
	snap := c.Snapshot()
	if snap["a"] != 3 || snap["b"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if got := c.String(); got != "a=3 b=1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCountersNilIsNoOpSink(t *testing.T) {
	var c *Counters
	c.Inc("x") // must not panic
	c.Counter("x").Add(5)
	if got := c.Get("x"); got != 0 {
		t.Fatalf("nil Get = %d", got)
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil Snapshot = %v", snap)
	}
	if !strings.Contains(c.String(), "no events") {
		t.Fatalf("nil String = %q", c.String())
	}
}

func TestCountersDiff(t *testing.T) {
	c := NewCounters()
	c.Counter("steady").Add(5)
	c.Counter("busy").Add(10)
	prev := c.Snapshot()

	c.Counter("busy").Add(7)
	c.Inc("fresh")
	d := c.Diff(prev)
	if len(d) != 2 || d["busy"] != 7 || d["fresh"] != 1 {
		t.Fatalf("Diff = %v, want busy=7 fresh=1 only", d)
	}
	if _, ok := d["steady"]; ok {
		t.Fatal("unchanged counter must be omitted from Diff")
	}

	// A prev entry above the current value (different registry / restart)
	// reports the full current value rather than underflowing.
	other := NewCounters()
	other.Counter("busy").Add(3)
	if d := other.Diff(prev); d["busy"] != 3 {
		t.Fatalf("regressed counter Diff = %v, want busy=3", d)
	}

	// Nil registry: empty diff, no panic.
	var nilC *Counters
	if d := nilC.Diff(prev); len(d) != 0 {
		t.Fatalf("nil Diff = %v", d)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc("shared")
			}
		}()
	}
	wg.Wait()
	if got := c.Get("shared"); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
}

// TestCounterHandleAndNameAreOneNumber: 8 goroutines count into one
// counter, half through its handle and half by name with Inc; nothing is
// lost and both views read the same total.
func TestCounterHandleAndNameAreOneNumber(t *testing.T) {
	c := NewCounters()
	h := c.Counter("shared")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if g%2 == 0 {
					h.Inc()
				} else {
					c.Inc("shared")
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Get("shared"); got != 8000 || h.Value() != got {
		t.Fatalf("by name %d, by handle %d, want 8000", got, h.Value())
	}
}

// TestCountersReadSurface replays one scripted sequence through the
// lock-free registry and checks every read form against what the
// mutex-and-map registry answered for it — with the difference the
// handles introduce pinned too: a name that is registered but has not
// counted anything is invisible.
func TestCountersReadSurface(t *testing.T) {
	c := NewCounters()
	idle := c.Counter("idle") // registered, never counts
	c.Inc("a")
	c.Counter("b").Add(5)
	c.Counter("a").Add(2)

	if got := c.Snapshot(); len(got) != 2 || got["a"] != 3 || got["b"] != 5 {
		t.Fatalf("Snapshot = %v, want a=3 b=5", got)
	}
	if got := c.String(); got != "a=3 b=5" {
		t.Fatalf("String = %q", got)
	}
	if c.Get("a") != 3 || c.Get("idle") != 0 || c.Get("never") != 0 || idle.Value() != 0 {
		t.Fatalf("Get: a=%d idle=%d never=%d", c.Get("a"), c.Get("idle"), c.Get("never"))
	}
	if got := c.Sum("a", "b", "idle", "never"); got != 8 {
		t.Fatalf("Sum = %d, want 8", got)
	}
	if got := c.Snapshot(); len(got) != 2 {
		t.Fatalf("reading absent names registered them: %v", got)
	}

	prev := c.Snapshot()
	c.Counter("b").Add(1)
	c.Inc("c")
	if got := c.Diff(prev); len(got) != 2 || got["b"] != 1 || got["c"] != 1 {
		t.Fatalf("Diff = %v, want b=1 c=1", got)
	}
	if got := NewCounters().String(); got != "(no events)" {
		t.Fatalf("empty String = %q", got)
	}
}

// TestTotalReadSurface: a total reads as its own adds plus its parts
// through every read form, stays hidden while that sum is zero, and an
// add by its name counts into its own cells.
func TestTotalReadSurface(t *testing.T) {
	c := NewCounters()
	hit, miss := c.Counter("hit"), c.Counter("miss")
	lookups := c.Total("lookups", hit, miss)
	if got := c.Snapshot(); len(got) != 0 || c.String() != "(no events)" {
		t.Fatalf("a total of zero shows: %v", got)
	}
	hit.Add(3)
	miss.Inc()
	if got := c.Snapshot(); len(got) != 3 || got["lookups"] != 4 || got["hit"] != 3 || got["miss"] != 1 {
		t.Fatalf("Snapshot = %v, want hit=3 lookups=4 miss=1", got)
	}
	if got := c.String(); got != "hit=3 lookups=4 miss=1" {
		t.Fatalf("String = %q", got)
	}
	if c.Get("lookups") != 4 || lookups.Value() != 4 || c.Sum("lookups", "hit") != 7 {
		t.Fatalf("Get %d, Value %d, Sum %d", c.Get("lookups"), lookups.Value(), c.Sum("lookups", "hit"))
	}
	prev := c.Snapshot()
	miss.Inc()
	c.Inc("lookups")
	if got := c.Diff(prev); len(got) != 2 || got["lookups"] != 2 || got["miss"] != 1 {
		t.Fatalf("Diff = %v, want lookups=2 miss=1", got)
	}
	if hit.Value() != 3 || miss.Value() != 2 {
		t.Fatalf("an add by the total's name reached a part: hit %d miss %d", hit.Value(), miss.Value())
	}
}

// TestTotalFirstRegistrationDecides: whichever of Counter and Total
// registers a name first decides what it is, and the other returns that
// same handle.
func TestTotalFirstRegistrationDecides(t *testing.T) {
	c := NewCounters()
	part := c.Counter("part")
	part.Inc()
	plain := c.Counter("plain")
	if h := c.Total("plain", part); h != plain || h.Value() != 0 {
		t.Fatalf("Total of a plain counter: %p (value %d), want %p", h, h.Value(), plain)
	}
	total := c.Total("total", part)
	if h := c.Counter("total"); h != total || h.Value() != 1 {
		t.Fatalf("Counter of a total: %p (value %d), want %p reading 1", h, h.Value(), total)
	}
}

// TestTotalReadsWhileItsPartsCount: adds land on a total's parts from
// several goroutines while Snapshot reads the total; under -race this is
// the total's reads of its parts' cells. Reads never go backwards or
// past the adds made, and the total is exact at rest.
func TestTotalReadsWhileItsPartsCount(t *testing.T) {
	c := NewCounters()
	parts := []*Counter{c.Counter("a"), c.Counter("b")}
	c.Total("all", parts...)
	const workers, adds = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *Counter) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				p.Inc()
			}
		}(parts[w%len(parts)])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for last := uint64(0); ; {
		select {
		case <-done:
			if got := c.Get("all"); got != workers*adds {
				t.Fatalf("at rest all = %d, want %d", got, workers*adds)
			}
			return
		default:
		}
		v := c.Snapshot()["all"]
		if v < last || v > workers*adds {
			t.Fatalf("all read %d after %d (at most %d)", v, last, workers*adds)
		}
		last = v
	}
}

func TestNilHandlesAreNoOpSinks(t *testing.T) {
	var c *Counters
	for _, h := range []*Counter{c.Counter("x"), c.Total("y", c.Counter("x"))} {
		h.Inc() // must not panic
		h.Add(5)
		if h != nil || h.Value() != 0 {
			t.Fatalf("nil registry handed out %v (value %d)", h, h.Value())
		}
	}
	var g *Gauges
	l := g.Gauge("x")
	l.Add(1)
	l.Set(7)
	if l != nil || l.Value() != 0 || g.Get("x") != 0 || len(g.Snapshot()) != 0 {
		t.Fatalf("nil gauges: handle %v value %d", l, l.Value())
	}
}

// TestFirstUseRegistrationRace: goroutines that meet a name for the first
// time at the same moment agree on one handle, and no count made through
// a handle that lost the race is dropped.
func TestFirstUseRegistrationRace(t *testing.T) {
	c := NewCounters()
	g := NewGauges()
	const names, workers = 64, 8
	handles := make([][names]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
				handles[w][i] = c.Counter(name)
				handles[w][i].Inc()
				g.Gauge(name).Add(1)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < names; i++ {
		for w := 1; w < workers; w++ {
			if handles[w][i] != handles[0][i] {
				t.Fatalf("name %d: two handles for one name", i)
			}
		}
		if got := handles[0][i].Value(); got != workers {
			t.Fatalf("name %d counted %d, want %d", i, got, workers)
		}
	}
	if got := len(c.Snapshot()); got != names {
		t.Fatalf("%d names registered, want %d", got, names)
	}
	for name, v := range g.Snapshot() {
		if v != workers {
			t.Fatalf("gauge %s = %d, want %d", name, v, workers)
		}
	}
}

func TestGaugesBasics(t *testing.T) {
	g := NewGauges()
	idle := g.Gauge("idle") // registered, never moved
	h := g.Gauge("level")
	h.Add(2)
	g.Gauge("level").Add(-2) // back to zero, but it has been used: still listed
	g.Gauge("pinned").Set(7)
	g.Gauge("pinned").Add(1)
	if got := g.Snapshot(); len(got) != 2 || got["level"] != 0 || got["pinned"] != 8 {
		t.Fatalf("Snapshot = %v, want level=0 pinned=8", got)
	}
	if got := g.String(); got != "level=0 pinned=8" {
		t.Fatalf("String = %q", got)
	}
	if got := g.NonZero(); len(got) != 1 || got["pinned"] != 8 {
		t.Fatalf("NonZero = %v", got)
	}
	if g.Get("pinned") != 8 || g.Get("never") != 0 || idle.Value() != 0 {
		t.Fatalf("Get: pinned=%d never=%d idle=%d", g.Get("pinned"), g.Get("never"), idle.Value())
	}
	if got := NewGauges().String(); got != "(no gauges)" {
		t.Fatalf("empty String = %q", got)
	}
}

// TestCounterAddsToRunningProcessorsCell: on one processor every add lands
// in that processor's cell; with twice as many processors as cells, so
// that two share each cell, concurrent adds still lose nothing.
func TestCounterAddsToRunningProcessorsCell(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := NewCounters().Counter("x")
	for i := 0; i < 1000; i++ {
		h.Inc()
	}
	if got := h.cells[0].n.Load(); got != 1000 || h.Value() != 1000 {
		t.Fatalf("processor 0's cell holds %d of %d adds, want all 1000", got, h.Value())
	}

	runtime.GOMAXPROCS(2 * len(h.cells))
	const workers, adds = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				h.Add(2)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Value(), uint64(1000+2*workers*adds); got != want {
		t.Fatalf("Value = %d, want %d", got, want)
	}
}

// BenchmarkCounterAdd is one add through a handle on one processor.
func BenchmarkCounterAdd(b *testing.B) {
	h := NewCounters().Counter("x")
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

// BenchmarkCounterAddParallel is one add through a shared handle from
// every processor at once: each adds to its own cell, so the ns/op should
// fall as processors are added.
func BenchmarkCounterAddParallel(b *testing.B) {
	h := NewCounters().Counter("x")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Inc()
		}
	})
}
