package main

// The bind-history oracle. Every mobile node under test has a history of
// the addresses it held; a resolve answer is judged against it, and so is
// the stream of updates each registrant saw.
//
// An answer is right iff it is an address the owner held at some instant
// between the op's invocation and its response. A binding is held from
// the instant the RebindContext that created it was invoked (the new
// address may be visible from then on) until the next move's
// RebindContext has returned (until then the old record may legitimately
// still be served). A resolver that relies on LDT pushes gets a grace
// period on top: an old address served within it is counted as stale,
// not wrong.

import (
	"math"
	"sync"
	"sync/atomic"
)

// bound is one address a node held. Times are nanoseconds on the run's
// monotonic clock.
type bound struct {
	addr  string
	start int64 // the creating Rebind (or Start) was invoked
	end   int64 // the next move's Rebind returned; forever while current
}

const forever = math.MaxInt64

type history struct {
	mu      sync.RWMutex
	bounds  []bound
	version atomic.Uint64 // len(bounds), readable without the lock
}

// moved appends the binding a move created: it was invoked at start and
// returned at returned, which is also where the previous binding stops
// being admissible. It returns the new binding's index.
func (h *history) moved(addr string, start, returned int64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.bounds); n > 0 {
		h.bounds[n-1].end = returned
	}
	h.bounds = append(h.bounds, bound{addr: addr, start: start, end: forever})
	h.version.Store(uint64(len(h.bounds)))
	return len(h.bounds) - 1
}

// current returns the newest binding and the version it belongs to.
func (h *history) current() (string, uint64) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := len(h.bounds)
	if n == 0 {
		return "", 0
	}
	return h.bounds[n-1].addr, uint64(n)
}

type verdict int

const (
	right verdict = iota
	stale         // an old address, served within the grace period
	wrong
)

// check judges the answer addr to an op invoked at inv that responded at
// resp.
func (h *history) check(addr string, inv, resp, grace int64) verdict {
	h.mu.RLock()
	defer h.mu.RUnlock()
	v := wrong
	for i := range h.bounds {
		b := &h.bounds[i]
		if b.addr != addr || b.start > resp {
			continue
		}
		if inv <= b.end {
			return right
		}
		if b.end != forever && inv-b.end <= grace {
			v = stale
		}
	}
	return v
}

// indexAt returns the index of the newest binding of addr created no
// later than t, or -1: which move an update received at t announces.
func (h *history) indexAt(addr string, t int64) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i := len(h.bounds) - 1; i >= 0; i-- {
		if h.bounds[i].addr == addr && h.bounds[i].start <= t {
			return i
		}
	}
	return -1
}

// received is one update a registrant's Updates() yielded.
type received struct {
	addr string
	at   int64
}

// move is one scheduled move of a mover.
type move struct {
	due      int64 // when the schedule said to move
	start    int64 // when RebindContext was invoked
	returned int64
	index    int // the binding it created
	err      error
}

// deliveries judges one registrant's update stream against the moves:
// every move must be announced, by its own address or — coalescing may
// skip intermediates — a later one, within deadline of its due time. It
// returns each delivered move's lag from due time (-1 where undelivered),
// aligned with moves.
func deliveries(h *history, moves []move, got []received, deadline int64) []int64 {
	// reach[i] is the first instant the registrant knew of binding >= i.
	idx := make([]int, len(got))
	for i, r := range got {
		idx[i] = h.indexAt(r.addr, r.at)
	}
	lags := make([]int64, len(moves))
	for m, mv := range moves {
		lags[m] = -1
		if mv.err != nil {
			continue
		}
		for i, r := range got {
			if idx[i] >= mv.index {
				if lag := r.at - mv.due; lag <= deadline {
					lags[m] = lag
				}
				break
			}
		}
	}
	return lags
}
