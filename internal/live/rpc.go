package live

// This file is the resilient RPC layer: every request/response exchange
// a live node makes gets capped exponential backoff with full jitter
// under the caller's context, behind its peer's suspicion circuit breaker
// (peer.go), which is looked up once here and handed down to the session.
//
// Every exchange, request or one-way, rides the multiplexed connection
// pool (pool.go): one long-lived connection per peer, demultiplexed by
// sequence number. Every exchange is bounded by the caller's context and
// per attempt by RequestTimeout, so by RetryAttempts × RequestTimeout plus
// the capped pauses between attempts. An attempt's deadline is the one
// timer it arms (pool.go's waiter), and it covers the dial of a session
// the attempt finds new: the session dials on its own goroutine, and the
// attempt waits on its reply, not on the dial.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"bristle/internal/transport"
	"bristle/internal/wire"
)

// ProbeSuspects pings every suspect peer whose cooldown allows a probe;
// a successful probe closes the breaker. A peer still in its cooldown is
// skipped, so a call costs it no attempt and no fast-fail. Failures only
// refresh the breaker's own state, so this is safe to call from a
// maintenance loop. (The suspect list itself is surfaced through
// Stats().Suspects.)
func (n *Node) ProbeSuspects(ctx context.Context) {
	n.peers.each(func(p *peer) {
		if p.probeDue() && n.PingContext(ctx, p.addr) == nil {
			n.logf("probe of suspect %s succeeded", p.addr)
		}
	})
}

// request performs one request/response exchange with addr under the full
// resilience policy: breaker fail-fast, then up to RetryAttempts attempts
// with capped exponential backoff and full jitter, each attempt bounded
// by RequestTimeout and all of them by ctx.
func (n *Node) request(ctx context.Context, addr string, m *wire.Message) (*wire.Message, error) {
	p := n.peers.get(addr, true)
	if err := p.breakerAllow(n); err != nil {
		return nil, err
	}
	resp, err := n.requestRetry(ctx, p, m)
	// A failure once the caller's ctx has ended is the caller giving up,
	// not evidence against the peer.
	p.breakerResult(n, err, err != nil && ctx.Err() != nil)
	return resp, err
}

// requestRetry reads the clock once per attempt, at its start, plus once
// more on a success to time it.
func (n *Node) requestRetry(ctx context.Context, p *peer, m *wire.Message) (*wire.Message, error) {
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < n.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, n.backoff(attempt)); err != nil {
				break // caller gave up mid-backoff
			}
			n.ctr.rpcRetries.Inc()
			start = time.Now()
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("live: request to %s: %w", p.addr, err)
			}
			break
		}
		n.ctr.rpcAttempts.Inc()
		// One exchange over p's pooled session. A success folds its round-trip
		// time into p's RTT estimate — proximity data comes for free with the
		// traffic the node already sends. Failures feed nothing: a timeout's
		// duration measures the timeout.
		resp, err := n.pool.roundTrip(ctx, p, m, start, start.Add(n.cfg.RequestTimeout))
		if err == nil {
			p.observe(time.Since(start))
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
	return time.Duration(rand.Int64N(int64(cap) + 1))
}

// oneWay stages m for addr, waiting on no reply, no dial and no write,
// which RequestTimeout bounds. A suspect peer fails fast (late binding
// covers the missed push); a failure to stage feeds the breaker, and what
// follows is the pool's to record (the session's dial, or send).
func (n *Node) oneWay(ctx context.Context, addr string, m *wire.Message) error {
	p := n.peers.get(addr, true)
	if err := p.breakerAllow(n); err != nil {
		return err
	}
	err := n.pool.send(p, m, time.Now().Add(n.cfg.RequestTimeout))
	if err != nil {
		p.breakerResult(n, err, ctx.Err() != nil)
	}
	return err
}
