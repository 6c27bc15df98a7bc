package integration

// Both chaos integration tests run on the scenario harness
// (internal/harness): it owns cluster bootstrap, seeded fault
// injection, partitions, background maintenance, and leak-checked
// shutdown, so these tests only script their story and assert on the
// cluster's observable surface.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"bristle/internal/harness"
	"bristle/internal/live"
	"bristle/internal/transport"
)

// TestLiveRingLeasesRefreshUnderChaos runs the real live stack — socket
// protocol, leases, background maintenance (gossip, lease renewal,
// suspect probing) — behind a Faulty transport: 20% frame loss and
// injected delay throughout, plus a two-node partition that heals
// mid-run. Leases must keep refreshing through the loss so every mobile
// stays discoverable, and the counters must show the resilience
// machinery actually firing.
func TestLiveRingLeasesRefreshUnderChaos(t *testing.T) {
	const seed = 1234
	const leaseTTL = time.Second
	island := []string{"t6", "u2"}
	mainland := []string{"t1", "t2", "t3", "t4", "t5", "u1"}
	c, err := harness.New(harness.Config{
		Seed:        seed,
		Stationary:  []string{"t1", "t2", "t3", "t4", "t5", "t6"},
		Mobile:      []string{"u1", "u2"},
		LeaseTTL:    leaseTTL,
		Replication: 3,
		Faults:      transport.FaultConfig{Drop: 0.20, DelayMax: 30 * time.Millisecond},
		Maintain: &live.MaintainConfig{
			GossipInterval: 300 * time.Millisecond,
			RenewInterval:  300 * time.Millisecond,
			ProbeInterval:  250 * time.Millisecond,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	must := func(what string, d time.Duration, op func() error) {
		t.Helper()
		if err := harness.Eventually(d, op); err != nil {
			t.Fatalf("%s: still failing at deadline: %v", what, err)
		}
	}
	must("u1 publish", 20*time.Second, func() error { return c.Publish("u1") })
	must("u2 publish", 20*time.Second, func() error { return c.Publish("u2") })

	// Two nodes cut away from the rest in both directions, held well past
	// the lease TTL: mainland renewals must keep u1 alive in the
	// repository even while 20% of frames vanish.
	if err := c.Partition("island", island, mainland); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * leaseTTL / 2)
	must("u1 move under chaos", 20*time.Second, func() error { return c.Move("u1") })
	if err := c.Heal("island"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(leaseTTL)

	// Every mobile stays discoverable — including the healed u2, whose
	// lease may have lapsed during isolation until its renewal loop
	// republished it. Still under 20% loss; retries absorb the noise.
	discoverFresh := func(from, target string) {
		t.Helper()
		must(from+" discover "+target, 15*time.Second, func() error {
			addr, err := c.Node(from).DiscoverContext(context.Background(), c.Key(target))
			if err != nil {
				return err
			}
			if addr != c.Addr(target) {
				return fmt.Errorf("stale %q, current %q", addr, c.Addr(target))
			}
			return nil
		})
	}
	for _, probe := range []string{"t1", "t6"} {
		for _, m := range []string{"u1", "u2"} {
			discoverFresh(probe, m)
		}
	}

	// A record that stops being renewed must still expire: the lease
	// mechanism is alive, not just never-expiring storage.
	c.StopMaintenance("u1")
	must("u1 lease expiry after renewal stopped", 15*time.Second, func() error {
		_, err := c.Node("t2").DiscoverContext(context.Background(), c.Key("u1"))
		if errors.Is(err, live.ErrNotFound) {
			return nil
		}
		return fmt.Errorf("u1 still resolvable (err=%v)", err)
	})

	if c.Counters.Get("fault.drop") == 0 {
		t.Error("chaos vacuous: no frames dropped")
	}
	if c.Counters.Get("rpc.retries") == 0 {
		t.Error("no retries recorded under 20% loss")
	}
	// The whole run rode the multiplexed pool: sessions were dialed, and
	// every fault above was injected on long-lived pooled connections.
	if c.Counters.Get("pool.dials") == 0 {
		t.Error("no pooled sessions dialed: chaos run did not exercise the pool")
	}
}

// TestResolveCoalescesUnderChaos drives the cache-first resolve path —
// singleflight discovery and lease write-through — through
// a lossy, delaying transport. A burst of concurrent resolvers for one
// freshly published key must all converge on the right address while the
// coalescing keeps the number of network discoveries far below the
// number of callers, and the follow-up resolves must be answered from
// the cached lease without any new discovery.
func TestResolveCoalescesUnderChaos(t *testing.T) {
	const seed = 4321
	c, err := harness.New(harness.Config{
		Seed:        seed,
		Stationary:  []string{"a1", "a2", "a3"},
		Mobile:      []string{"mob"},
		LeaseTTL:    30 * time.Second,
		Replication: 2,
		Faults:      transport.FaultConfig{Drop: 0.10, DelayMax: 10 * time.Millisecond},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	if err := harness.Eventually(20*time.Second, func() error { return c.Publish("mob") }); err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Background traffic keeps the chaos non-vacuous: a single coalesced
	// discovery alone exchanges too few frames to be guaranteed a drop.
	for i := 0; i < 60; i++ {
		_ = c.Node("a2").PingContext(context.Background(), c.Addr("a3"))
	}

	// Storm: 32 resolvers on one key through a node that has never seen
	// it. Retries absorb the loss; the singleflight absorbs the fan-in.
	const stormers = 32
	before := c.Counters.Get("resolve.discoveries")
	storm := harness.Storm{From: "a1", Target: "mob", Resolvers: stormers, Within: 30 * time.Second}
	if err := storm.Apply(c); err != nil {
		t.Fatalf("storm: %v", err)
	}
	discoveries := c.Counters.Get("resolve.discoveries") - before
	if discoveries == 0 || discoveries > stormers/4 {
		t.Errorf("resolve.discoveries = %d for %d concurrent resolvers; want coalesced to a handful", discoveries, stormers)
	}

	// Steady state: the lease answers locally; no new discovery happens.
	hitsBefore := c.Counters.Get("loccache.hit")
	for i := 0; i < 20; i++ {
		addr, err := c.Resolve("a1", "mob")
		if err != nil || addr != c.Addr("mob") {
			t.Fatalf("cached resolve %d: %q %v", i, addr, err)
		}
	}
	if after := c.Counters.Get("resolve.discoveries") - before; after != discoveries {
		t.Errorf("steady-state resolves issued %d extra discoveries", after-discoveries)
	}
	if got := c.Counters.Get("loccache.hit") - hitsBefore; got < 20 {
		t.Errorf("loccache.hit grew by %d, want at least the 20 steady-state resolves", got)
	}
	if c.Counters.Get("fault.drop") == 0 {
		t.Error("chaos vacuous: no frames dropped")
	}
}
