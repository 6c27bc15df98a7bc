package loccache

// Singleflight for discovery: when many goroutines miss on the same key
// at once, exactly one _discovery goes to the network and its answer
// serves every waiter. The caller that starts a flight (its leader) flies
// it on its own goroutine: a lone miss costs no goroutine and no hand-off.
// One waiter giving up — even the leader — still never cancels the
// resolution the others are blocked on: a leader whose context ends before
// the flight is decided hands it to a goroutine that runs fn again.
// Waiters honor their own contexts independently.

import (
	"context"
	"errors"
	"sync"

	"bristle/internal/hashkey"
)

// errAborted is what followers get from a flight whose fn panicked.
var errAborted = errors.New("loccache: flight aborted")

type flight struct {
	done chan struct{} // closed when addr/err are final
	addr string
	err  error
}

// Group coalesces concurrent resolutions per key. The zero value is
// ready to use.
type Group struct {
	mu      sync.Mutex
	flights map[hashkey.Key]*flight
}

// Do returns key's in-progress flight result; with no flight running it
// starts one and runs fn right here. shared reports whether this call
// joined a flight someone else started (the coalesced case). ctx bounds
// only this caller's wait: the flight keeps running for the remaining
// waiters. The leader is bounded by ctx as far as fn is; if fn fails once
// ctx has ended, Do returns ctx.Err() and a goroutine calls fn a second
// time, where it must run under a lifetime of its own.
func (g *Group) Do(ctx context.Context, key hashkey.Key, fn func() (string, error)) (addr string, shared bool, err error) {
	f, leader := g.join(key)
	if leader {
		addr, err = g.fly(ctx, key, f, fn)
		return addr, false, err
	}
	select {
	case <-f.done:
		return f.addr, true, f.err
	case <-ctx.Done():
		return "", true, ctx.Err()
	}
}

// join returns key's flight, and whether the caller created it just now.
func (g *Group) join(key hashkey.Key) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.flights == nil {
		g.flights = make(map[hashkey.Key]*flight)
	}
	if f = g.flights[key]; f != nil {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// fly runs fn as f's flight and lands the outcome, deferred: an fn that
// panics still wakes the followers (with errAborted) and frees the key.
// The map entry goes before done closes, so a waiter that wakes and
// retries never joins a finished flight. An outcome the leader's own ctx
// may have decided (ctx ended, fn failed) is not landed: f goes to a
// goroutine that owes the followers a second run of fn.
func (g *Group) fly(ctx context.Context, key hashkey.Key, f *flight, fn func() (string, error)) (addr string, err error) {
	f.err = errAborted
	detached := false
	defer func() {
		if detached {
			return
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	addr, err = fn()
	if err != nil && ctx.Err() != nil {
		detached = true
		go g.fly(context.Background(), key, f, fn)
		return "", ctx.Err()
	}
	f.addr, f.err = addr, err
	return addr, err
}
