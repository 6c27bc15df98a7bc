package live

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// MaintainConfig tunes the background maintenance of a live node.
type MaintainConfig struct {
	// GossipInterval is the anti-entropy membership exchange period.
	// Zero disables gossip.
	GossipInterval time.Duration
	// RenewInterval is the location republish period (early binding lease
	// renewal, §2.3.2). Zero derives LeaseTTL/2 when a lease is set, else
	// disables renewal.
	RenewInterval time.Duration
	// ProbeInterval is how often suspect peers (open circuit breakers) are
	// probed so they can be readmitted without waiting for live traffic to
	// half-open them. Zero disables background probing.
	ProbeInterval time.Duration
	// Rand seeds gossip partner selection; nil uses a time-seeded source.
	Rand *rand.Rand
}

// StartMaintenance launches the node's periodic duties — anti-entropy
// gossip, lease renewal, suspect probing and the registry sweep — and
// returns a stop function. Stopping is
// idempotent, cancels whatever exchange a duty has in flight, and waits
// for the loops to exit; closing the node stops them too. Errors inside
// the loops are logged (when a Logger is configured) and do not stop
// maintenance: a missed gossip round or renewal retries on the next tick.
func (n *Node) StartMaintenance(cfg MaintainConfig) (stop func()) {
	if cfg.RenewInterval == 0 && n.cfg.LeaseTTL > 0 {
		cfg.RenewInterval = n.cfg.LeaseTTL / 2
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}

	ctx, cancel := context.WithCancel(n.runCtx)
	var wg sync.WaitGroup
	// every runs duty once per interval until ctx ends; a zero interval
	// disables the duty.
	every := func(interval time.Duration, duty func()) {
		if interval <= 0 {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					duty()
				}
			}
		}()
	}
	every(cfg.GossipInterval, func() {
		if _, err := n.gossipOnce(ctx, rng); err != nil {
			n.logf("maintenance gossip: %v", err)
		}
	})
	every(cfg.RenewInterval, func() {
		if err := n.PublishContext(ctx); err != nil {
			n.logf("maintenance renew: %v", err)
		}
	})
	every(cfg.ProbeInterval, func() { n.ProbeSuspects(ctx) })
	// Lapsed registrations leave R(self) every half lease; the LDT fan-out
	// also sweeps inline, so this only bounds how long a dead registrant
	// occupies memory.
	every(n.cfg.LeaseTTL/2, func() { n.SweepRegistry() })

	return func() {
		cancel()
		wg.Wait()
	}
}
