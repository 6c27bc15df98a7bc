package live

// This file is the resilient RPC layer: every request/response exchange
// a live node makes gets capped exponential backoff with full jitter
// under an overall deadline, behind its peer's suspicion circuit breaker
// (peer.go), which is looked up once here and handed down to the session.
//
// Every exchange, request or one-way, rides the multiplexed connection
// pool (pool.go): one long-lived connection per peer, demultiplexed by
// sequence number. Every exchange is bounded by the caller's context, by
// its retry budget (an instant) and per attempt by RequestTimeout; the
// earlier of the last two is the one timer an attempt arms (pool.go's
// waiter), and it covers the dial of a session the attempt finds new:
// the session dials on its own goroutine, and the attempt waits on its
// reply, not on the dial.

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
	if n.peers.suspects.Load() == 0 {
		return
	}
	n.peers.each(func(p *peer) {
		if p.probeDue() && n.PingContext(ctx, p.addr) == nil {
			n.logf("probe of suspect %s succeeded", p.addr)
		}
	})
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
	p := n.peers.get(addr, true)
	if err := p.breakerAllow(n); err != nil {
		return nil, err
	}
	resp, err := n.requestRetry(ctx, budget, p, m)
	// A failure caused by the caller giving up — its ctx ended, or the
	// budget it brought ran out — is not evidence against the peer.
	gaveUp := err != nil && (ctx.Err() != nil || !budget.IsZero() && !time.Now().Before(budget))
	p.breakerResult(n, err, gaveUp)
	return resp, err
}

// requestRetry reads the clock once per attempt, at its start, plus once
// more on a success to time it and once before each backoff.
func (n *Node) requestRetry(ctx context.Context, budget time.Time, p *peer, m *wire.Message) (*wire.Message, error) {
	start := time.Now()
	if budget.IsZero() {
		budget = start.Add(n.cfg.RetryBudget)
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
			start = time.Now()
		}
		err := ctx.Err()
		if err == nil && !start.Before(budget) {
			err = context.DeadlineExceeded
		}
		if err != nil {
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
		by := start.Add(n.cfg.RequestTimeout)
		if budget.Before(by) {
			by = budget
		}
		resp, err := n.pool.roundTrip(ctx, p, m, start, by)
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
// follows is the pool's to record (oneWayResult).
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
