package metrics

import "sync/atomic"

// Gauges is a concurrency-safe registry of named instantaneous values —
// the level-style counterpart of Counters, used by the live connection
// pool to expose how many sessions are open and how many requests are in
// flight right now. Like Counters, a nil *Gauges is a valid no-op sink,
// and every write goes through a handle (Gauge) taken at construction.
type Gauges struct {
	ix index[Gauge]
}

// NewGauges returns an empty registry.
func NewGauges() *Gauges { return &Gauges{} }

// Gauge returns name's handle, registering the name on first use. A
// registered gauge stays out of Snapshot and String until it has been
// moved or set. A nil registry returns a nil handle, also a no-op sink.
func (g *Gauges) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	return g.ix.get(name, func() *Gauge { return new(Gauge) })
}

// Get returns the named gauge's value (0 when absent or nil registry).
func (g *Gauges) Get(name string) int64 {
	if g == nil {
		return 0
	}
	return g.ix.lookup(name).Value()
}

// Snapshot copies every gauge that has been moved or set.
func (g *Gauges) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if g == nil {
		return out
	}
	for name, h := range g.ix.all() {
		if h.used.Load() {
			out[name] = h.Value()
		}
	}
	return out
}

// NonZero returns the gauges currently holding a non-zero value — the
// shape a shutdown invariant wants ("every level returned to zero").
func (g *Gauges) NonZero() map[string]int64 {
	out := make(map[string]int64)
	for k, v := range g.Snapshot() {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// String renders the gauges as "name=value" pairs in sorted order.
func (g *Gauges) String() string { return render(g.Snapshot(), "(no gauges)") }

// Gauge is one named level's handle: a single atomic word, because Set
// has to be exact and a value spread over cells (as Counter's is) cannot
// be pinned in one step. Levels move per RPC and per cache fill, not per
// cache hit. A nil *Gauge is a valid no-op sink.
type Gauge struct {
	v    atomic.Int64
	used atomic.Bool // moved or set at least once
}

// Add moves the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
	g.touch()
}

// Set pins the gauge to v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.touch()
}

func (g *Gauge) touch() {
	if !g.used.Load() {
		g.used.Store(true)
	}
}

// Value returns the gauge's current value (0 for a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
