package live

// This file is the resilient RPC layer: every request/response exchange
// a live node makes gets capped exponential backoff with full jitter
// under an overall deadline, and every peer gets a suspicion circuit
// breaker — repeated failures mark it suspect so later operations fail
// fast instead of burning a timeout, until a probe succeeds (§2.3.2's
// graceful degradation, applied to the transport itself).
//
// Every exchange, request or one-way, rides the multiplexed connection
// pool (pool.go): one long-lived connection per peer, demultiplexed by
// sequence number. Every exchange is bounded by the caller's context, by
// its retry budget (an instant) and per attempt by RequestTimeout; the
// earlier of the last two is the one timer an attempt arms (pool.go's
// waiter) — no context is derived for an attempt unless it has to dial.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/transport"
	"bristle/internal/wire"
)

// breakerState is the classic three-state circuit.
type breakerState int

const (
	bkClosed   breakerState = iota // healthy: all traffic flows
	bkOpen                         // suspect: fail fast until probeAt
	bkHalfOpen                     // one probe in flight; others fail fast
)

type breaker struct {
	state   breakerState
	fails   int       // consecutive failed exchanges
	probeAt time.Time // when open: earliest next probe
}

// peerShard is one slice of the per-peer breaker table.
type peerShard struct {
	mu sync.Mutex
	m  map[string]*breaker
}

// peerTable holds every peer's circuit breaker, sharded by address hash:
// an exchange's allow/record pair contends only with exchanges against
// peers in the same shard, never with the whole fan-out of a publish.
type peerTable struct {
	shards [stateShards]peerShard
	// entries counts the breakers in all shards and suspects the non-closed
	// ones among them, so the steady states — no peer has a failure on
	// record, nobody is suspect — are each answered by one load.
	entries, suspects atomic.Int64
}

func (t *peerTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[string]*breaker)
	}
}

// addrShard hashes an address to a shard index by FNV-1a — addresses
// are short strings, and the keyed tables' mask trick needs a
// well-mixed integer first. Shared by the breaker, RTT, and pool
// tables so one peer's state co-locates by construction.
func addrShard(addr string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h ^= uint32(addr[i])
		h *= 16777619
	}
	return h & (stateShards - 1)
}

// shard selects addr's breaker shard.
func (t *peerTable) shard(addr string) *peerShard {
	return &t.shards[addrShard(addr)]
}

// suspectAddrs returns the addresses whose breakers are open or
// half-open, sorted — the peers currently routed around.
func (t *peerTable) suspectAddrs() []string {
	var out []string
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for addr, b := range sh.m {
			if b.state != bkClosed {
				out = append(out, addr)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// breakerAllow consults addr's breaker before any network I/O. A closed
// breaker admits the call; an open one past its cooldown moves to
// half-open and admits this single call as the probe; anything else fails
// fast with ErrPeerSuspect.
func (n *Node) breakerAllow(addr string) error {
	if n.cfg.SuspicionThreshold < 0 || n.peersTbl.entries.Load() == 0 {
		return nil
	}
	sh := n.peersTbl.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[addr]
	if b == nil || b.state == bkClosed {
		return nil
	}
	if b.state == bkOpen && !time.Now().Before(b.probeAt) {
		b.state = bkHalfOpen
		n.ctr.breakerProbes.Inc()
		return nil
	}
	n.ctr.breakerFastfail.Inc()
	return fmt.Errorf("%w: %s", ErrPeerSuspect, addr)
}

// breakerResult records the outcome of an exchange with addr. Success
// closes (and forgets) the breaker; failures accumulate and trip it at
// SuspicionThreshold, or re-open it immediately from half-open.
// abandoned marks a failure caused by the caller giving up: no evidence
// against the peer, but if the call was the half-open probe nothing else
// leaves that state, so the breaker goes back to open, a probe due at once.
func (n *Node) breakerResult(addr string, err error, abandoned bool) {
	if n.cfg.SuspicionThreshold < 0 || errors.Is(err, ErrPeerSuspect) {
		return // a fast-fail is not fresh evidence
	}
	if (err == nil || abandoned) && n.peersTbl.entries.Load() == 0 {
		return
	}
	sh := n.peersTbl.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[addr]
	switch {
	case err == nil:
		if b != nil {
			if b.state != bkClosed {
				n.peersTbl.suspects.Add(-1)
				n.ctr.breakerCloses.Inc()
				n.logf("peer %s healthy again; breaker closed", addr)
			}
			delete(sh.m, addr)
			n.peersTbl.entries.Add(-1)
		}
		return
	case abandoned:
		if b != nil && b.state == bkHalfOpen {
			b.state, b.probeAt = bkOpen, time.Now()
		}
		return
	}
	if b == nil {
		b = &breaker{}
		sh.m[addr] = b
		n.peersTbl.entries.Add(1)
	}
	b.fails++
	if b.state == bkHalfOpen || b.fails >= n.cfg.SuspicionThreshold {
		if b.state == bkClosed {
			n.peersTbl.suspects.Add(1)
		}
		if b.state != bkOpen {
			n.ctr.breakerTrips.Inc()
			n.logf("peer %s suspect after %d consecutive failures", addr, b.fails)
		}
		b.state = bkOpen
		b.probeAt = time.Now().Add(n.cfg.SuspicionCooldown)
	}
}

// suspect reports whether addr's breaker is currently non-closed.
func (n *Node) suspect(addr string) bool {
	sh := n.peersTbl.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[addr]
	return b != nil && b.state != bkClosed
}

// ProbeSuspects pings every suspect peer whose cooldown allows a probe;
// a successful probe closes the breaker. Failures only refresh the
// breaker's own state, so this is safe to call from a maintenance loop.
// (The suspect list itself is surfaced through Stats().Suspects.)
func (n *Node) ProbeSuspects(ctx context.Context) {
	for _, addr := range n.peersTbl.suspectAddrs() {
		if err := n.PingContext(ctx, addr); err == nil {
			n.logf("probe of suspect %s succeeded", addr)
		}
	}
}

// request performs one request/response exchange with addr under the full
// resilience policy: breaker fail-fast, then up to RetryAttempts attempts
// with capped exponential backoff and full jitter, each attempt bounded
// by RequestTimeout, all attempts bounded by RetryBudget and by ctx.
func (n *Node) request(ctx context.Context, addr string, m *wire.Message) (*wire.Message, error) {
	return n.requestBy(ctx, time.Time{}, addr, m)
}

// requestBy is request under a budget the exchanges of one operation
// share; the zero time starts a RetryBudget now.
func (n *Node) requestBy(ctx context.Context, budget time.Time, addr string, m *wire.Message) (*wire.Message, error) {
	if err := n.breakerAllow(addr); err != nil {
		return nil, err
	}
	resp, err := n.requestRetry(ctx, budget, addr, m)
	// A failure caused by the caller giving up — its ctx ended, or the
	// budget it brought ran out — is not evidence against the peer.
	gaveUp := err != nil && (ctx.Err() != nil || !budget.IsZero() && !time.Now().Before(budget))
	n.breakerResult(addr, err, gaveUp)
	return resp, err
}

func (n *Node) requestRetry(ctx context.Context, budget time.Time, addr string, m *wire.Message) (*wire.Message, error) {
	if budget.IsZero() {
		budget = time.Now().Add(n.cfg.RetryBudget)
	}
	var lastErr error
	for attempt := 0; attempt < n.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			pause := n.backoff(attempt)
			if time.Now().Add(pause).After(budget) {
				break // budget exhausted: report the last real error
			}
			if err := sleepCtx(ctx, pause); err != nil {
				break // caller gave up mid-backoff
			}
			n.ctr.rpcRetries.Inc()
		}
		start := time.Now()
		err := ctx.Err()
		if err == nil && !start.Before(budget) {
			err = context.DeadlineExceeded
		}
		if err != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("live: request to %s: %w", addr, err)
			}
			break
		}
		n.ctr.rpcAttempts.Inc()
		// One exchange over addr's pooled session. A success folds its
		// round-trip time into addr's RTT estimator (rtt.go) — proximity data
		// comes for free with the traffic the node already sends. Failures
		// feed nothing: a timeout's duration measures the timeout.
		by := start.Add(n.cfg.RequestTimeout)
		if budget.Before(by) {
			by = budget
		}
		resp, err := n.pool.roundTrip(ctx, addr, m, by)
		if err == nil {
			n.rtt.observe(addr, time.Since(start))
			return resp, nil
		}
		lastErr = err
		if transport.IsTimeout(err) {
			n.ctr.rpcTimeouts.Inc()
		}
		if !Retryable(err) {
			n.ctr.rpcFatal.Inc()
			return nil, err
		}
	}
	n.ctr.rpcFailures.Inc()
	return nil, lastErr
}

// sleepCtx pauses for d, or returns ctx's error if it fires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the pause before the attempt-th retry: full jitter over
// an exponentially growing cap — uniform in [0, min(RetryMax,
// RetryBase·2^(attempt-1))] — which decorrelates the retry storms of
// nodes that failed together.
func (n *Node) backoff(attempt int) time.Duration {
	cap := n.cfg.RetryBase << uint(attempt-1)
	if cap > n.cfg.RetryMax || cap <= 0 {
		cap = n.cfg.RetryMax
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return time.Duration(n.rng.Int63n(int64(cap) + 1))
}

// oneWay sends m to addr without waiting for a response. It still
// consults the breaker (a suspect peer fails fast; late binding covers
// the missed push) and feeds the outcome back into it.
func (n *Node) oneWay(ctx context.Context, addr string, m *wire.Message) error {
	if err := n.breakerAllow(addr); err != nil {
		return err
	}
	by := time.Now().Add(n.cfg.RequestTimeout)
	actx, cancel := context.WithDeadline(ctx, by)
	defer cancel()
	err := n.pool.send(actx, addr, m, by)
	n.breakerResult(addr, err, err != nil && ctx.Err() != nil)
	return err
}
