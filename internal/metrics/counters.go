package metrics

import (
	"runtime"
	"sync/atomic"
	_ "unsafe" // go:linkname
)

// Counters is a concurrency-safe registry of named monotonic event
// counters, used by the live stack and the fault-injection transport to
// make resilience behaviour observable: retries, timeouts, breaker trips,
// injected faults. A nil *Counters is a valid no-op sink, so
// instrumentation sites never need to guard against an absent registry.
//
// Counting takes no lock. A site that counts per request registers its
// name once, at construction, and keeps the handle:
//
//	hits := counters.Counter("loccache.hit") // once
//	hits.Inc()                               // per event: one atomic add
//
// Inc by name resolves the name through the registry's copy-on-write
// index to the same handle, so a count made either way is one number.
// Only registering a name the registry has not seen takes the mutex.
type Counters struct {
	ix index[Counter]
}

// NewCounters returns an empty registry.
func NewCounters() *Counters { return &Counters{} }

// Counter returns name's handle, registering the name on first use. A
// registered name stays invisible to Snapshot and String until it
// has counted something. A nil registry returns a nil handle, which is a
// no-op sink like the registry itself.
func (c *Counters) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	return c.ix.get(name, newCounter)
}

// Total returns name's handle like Counter, registering it on first use
// as a total: it reads as its own adds plus its parts' values. Parts are
// plain counters. The first registration of a name decides what it is:
// Total of a registered name returns that handle, plain or not, and
// Counter of a total returns the total.
func (c *Counters) Total(name string, parts ...*Counter) *Counter {
	if c == nil {
		return nil
	}
	return c.ix.get(name, func() *Counter {
		h := newCounter()
		h.parts = parts
		return h
	})
}

// Inc adds 1 to the named counter. No-op on a nil registry.
func (c *Counters) Inc(name string) { c.Counter(name).Add(1) }

// Get returns the named counter's value (0 when absent or nil registry).
func (c *Counters) Get(name string) uint64 {
	if c == nil {
		return 0
	}
	return c.ix.lookup(name).Value()
}

// Sum returns the total of the named counters — the building block of
// conservation invariants ("these outcomes partition those attempts").
func (c *Counters) Sum(names ...string) uint64 {
	var total uint64
	for _, name := range names {
		total += c.Get(name)
	}
	return total
}

// Snapshot copies every counter that has counted something. It reads each
// counter's cells one atomic load at a time: exact once the counted
// activity is at rest, and never more than the adds in flight behind
// while it is not.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	if c == nil {
		return out
	}
	for name, h := range c.ix.all() {
		if v := h.Value(); v > 0 {
			out[name] = v
		}
	}
	return out
}

// Diff returns the per-counter increase since prev (a Snapshot taken
// earlier). Counters whose value did not change are omitted, so the
// result reads as "what happened during this interval" — the shape a
// periodic stats reporter wants. Counters are monotonic; a prev entry
// above the current value (a different registry, or a restart) is
// treated as new and reported at its full current value.
func (c *Counters) Diff(prev map[string]uint64) map[string]uint64 {
	cur := c.Snapshot()
	out := make(map[string]uint64)
	for k, v := range cur {
		if p, ok := prev[k]; ok && p <= v {
			if v > p {
				out[k] = v - p
			}
			continue
		}
		out[k] = v
	}
	return out
}

// String renders the counters as "name=value" pairs in sorted order —
// compact enough for a periodic log line.
func (c *Counters) String() string { return render(c.Snapshot(), "(no events)") }

// Counter is one named counter's handle. Its value is spread over one
// cache-line-sized cell per processor (rounded up to a power of two), so
// concurrent adds from different processors write different lines; the
// value is the sum of the cells, plus its parts' values for a total. A
// nil *Counter is a valid no-op sink.
type Counter struct {
	cells []cell
	parts []*Counter // a total's parts (Counters.Total); nil for a plain counter
}

// cell fills a cache line. The cells of one counter are a single
// allocation of a power-of-two multiple of 64 bytes, which the allocator
// aligns to 64.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// cellMask selects a cell by processor id: one cell per processor the
// machine has, or per processor the scheduler runs at start-up if that is
// more. A processor added later shares a cell, which the atomic add keeps
// exact.
var cellMask = func() int {
	n := 1
	for n < max(runtime.NumCPU(), runtime.GOMAXPROCS(0)) {
		n <<= 1
	}
	return n - 1
}()

func newCounter() *Counter { return &Counter{cells: make([]cell, cellMask+1)} }

// procPin returns the id of the processor running the caller and keeps the
// caller on it until procUnpin: the runtime's own way of giving each
// processor its slot, the one sync.Pool uses.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the running processor's cell: one atomic add, made while
// the caller cannot migrate, to a line no other processor writes unless
// GOMAXPROCS was raised past the cell count. On a total it adds to the
// total's own cells, never to a part.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.cells[procPin()&cellMask].n.Add(n)
	procUnpin()
}

// Value returns the counter's current value (0 for a nil handle): its own
// cells, plus each part's value for a total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var v uint64
	for i := range c.cells {
		v += c.cells[i].n.Load()
	}
	for _, p := range c.parts {
		v += p.Value()
	}
	return v
}
