package main

// The cluster under test: live nodes over loopback TCP in bristled's
// configuration. Everything here goes through live's exported API.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/live"
	"bristle/internal/metrics"
	"bristle/internal/transport"
)

// bristled's flag defaults; the benchmark measures this configuration
// and no other.
const (
	leaseTTL       = 30 * time.Second
	gossipInterval = 2 * time.Second
	nodeCapacity   = 4
	opTimeout      = 30 * time.Second
	listenAddr     = "127.0.0.1:0"
	stationaries   = 4
)

// member is one node with the registries bristled gives it.
type member struct {
	name     string
	node     *live.Node
	counters *metrics.Counters
	gauges   *metrics.Gauges
	stop     []func() // maintenance and hygiene loops, stopped before Close
}

// background runs fn in a goroutine until the member is stopped: fn must
// return when its context is cancelled.
func (m *member) background(fn func(ctx context.Context)) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(ctx)
	}()
	m.stop = append(m.stop, func() { cancel(); <-done })
}

type cluster struct {
	rng     *rand.Rand
	members []*member
	ring    []*member // the stationary nodes
}

func newCluster(seed int64) *cluster {
	return &cluster{rng: rand.New(rand.NewSource(seed))}
}

// role says how a node joins and what it runs, mirroring bristled's
// -mobile and -observer flags.
type role int

const (
	stationary role = iota // ring member: owns records, gossips
	mobile                 // bristled -mobile: joins, publishes, renews, gossips
	observer               // bristled -mobile -observer: never enters membership, so it neither publishes nor gossips
)

// add boots one node with bristled's options, starts it and joins it via
// the first stationary.
func (c *cluster) add(ctx context.Context, base string, r role, capacity float64) (*member, error) {
	// Names, and with them the ring's layout and every replica set's
	// size, are the same on every seed: the seed draws keys and key
	// sequences, not the cluster's shape.
	m := &member{
		name:     base,
		counters: metrics.NewCounters(),
		gauges:   metrics.NewGauges(),
	}
	opts := []live.Option{
		live.WithCapacity(capacity),
		live.WithLease(leaseTTL),
		live.WithCounters(m.counters),
		live.WithGauges(m.gauges),
	}
	if r != stationary {
		opts = append(opts, live.WithMobile())
	}
	if r == observer {
		opts = append(opts, live.WithObserverJoin())
	}
	node, err := live.New(m.name, &transport.TCP{}, opts...)
	if err != nil {
		return nil, err
	}
	if err := node.Start(listenAddr); err != nil {
		return nil, err
	}
	m.node = node
	c.members = append(c.members, m)
	if len(c.ring) > 0 {
		if err := node.JoinViaContext(ctx, c.ring[0].node.Addr()); err != nil {
			return nil, err
		}
	}
	if r == stationary {
		c.ring = append(c.ring, m)
	}
	return m, nil
}

// maintain starts bristled's maintenance loops on m (gossip, lease
// renewal at lease/2, suspect probing at twice the gossip interval).
func (c *cluster) maintain(m *member) {
	m.stop = append(m.stop, m.node.StartMaintenance(live.MaintainConfig{
		GossipInterval: gossipInterval,
		ProbeInterval:  gossipInterval * 2,
		Rand:           rand.New(rand.NewSource(c.rng.Int63())),
	}))
}

// bootRing starts the stationary nodes and gossips until each knows all
// of them, so replica sets are final before anything is published.
func (c *cluster) bootRing(ctx context.Context) error {
	for i := 0; i < stationaries; i++ {
		if _, err := c.add(ctx, fmt.Sprintf("s%d", i), stationary, nodeCapacity); err != nil {
			return err
		}
	}
	for round := 0; ; round++ {
		full := true
		for _, m := range c.ring {
			if m.node.Stats().Peers < stationaries {
				full = false
				if _, err := m.node.GossipOnce(c.rng); err != nil {
					return fmt.Errorf("gossip: %w", err)
				}
			}
		}
		if full {
			break
		}
		if round > 64 {
			return fmt.Errorf("membership did not converge in %d gossip rounds", round)
		}
	}
	for _, m := range c.ring {
		if err := m.node.PublishContext(ctx); err != nil {
			return err
		}
		c.maintain(m)
	}
	return nil
}

// publisher boots a mobile node owning keys and publishes them.
func (c *cluster) publisher(ctx context.Context, base string, keys []hashkey.Key) (*member, error) {
	m, err := c.add(ctx, base, mobile, nodeCapacity)
	if err != nil {
		return nil, err
	}
	m.node.OwnKeys(keys...)
	if err := m.node.PublishContext(ctx); err != nil {
		return nil, err
	}
	c.maintain(m)
	return m, nil
}

// client boots an observer: a node that resolves and may register, but
// holds no records and is no ring member.
func (c *cluster) client(ctx context.Context, base string, capacity float64) (*member, error) {
	return c.add(ctx, base, observer, capacity)
}

// keepRegistered registers m with the node owning target and renews the
// registration at lease/2 against the target's current address, as
// bristled's watchLoop does. It returns once the first registration is
// in place.
func (c *cluster) keepRegistered(ctx context.Context, m *member, target hashkey.Key) error {
	register := func(ctx context.Context) error {
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		defer cancel()
		addr, err := m.node.DiscoverContext(ctx, target)
		if err != nil {
			return err
		}
		return m.node.RegisterWithContext(ctx, addr)
	}
	if err := register(ctx); err != nil {
		return fmt.Errorf("%s: register: %w", m.name, err)
	}
	m.background(func(ctx context.Context) {
		t := time.NewTicker(leaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				// A failed renewal is retried on the next tick; if the
				// registration lapses the oracle sees the missed update.
				_ = register(ctx)
			}
		}
	})
	return nil
}

// close stops every loop, then every node, clients first so their pooled
// connections go before the listeners they point at.
func (c *cluster) close() {
	for _, m := range c.members {
		for _, stop := range m.stop {
			stop()
		}
	}
	for i := len(c.members) - 1; i >= 0; i-- {
		c.members[i].node.Close()
	}
}

// genKeys draws n distinct resource keys from rng.
func genKeys(rng *rand.Rand, n int) []hashkey.Key {
	seen := make(map[hashkey.Key]struct{}, n)
	keys := make([]hashkey.Key, 0, n)
	for len(keys) < n {
		k := hashkey.Random(rng)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}
